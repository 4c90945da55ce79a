package supervised

import (
	"math"
	"time"

	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
)

// NumFeatures is the dimensionality of the per-edge feature vector.
const NumFeatures = 6

// Features computes the schema-agnostic feature vector of the edge
// stored at entry p of g (either of its two entries), the feature set of
// the supervised meta-blocking paper adapted to this graph
// representation. Every feature is node-local: it reads only the
// entry's co-occurrence statistics and its endpoints' block counts and
// degrees.
//
//	0: CFIBF  — co-occurrence frequency * inverse block frequency
//	            (|B_uv| * log(|B|/|B_u|) * log(|B|/|B_v|), i.e. ECBS);
//	1: RACCB  — reciprocal aggregate cardinality of common blocks
//	            (sum over shared blocks of 1/||b||, i.e. ARCS);
//	2: JS     — Jaccard coefficient of the block sets;
//	3: |B_uv| — raw co-occurrence count (CBS);
//	4: NodeDegree(u)+NodeDegree(v), normalized by the number of edges;
//	5: |B_u|+|B_v|, normalized by the number of blocks.
func Features(g *graph.CSR, u, v int32, p int64, out []float64) []float64 {
	if cap(out) < NumFeatures {
		out = make([]float64, NumFeatures)
	}
	out = out[:NumFeatures]
	if v < u {
		u, v = v, u
	}
	bu := float64(g.BlockCounts[u])
	bv := float64(g.BlockCounts[v])
	common := float64(g.Common[p])
	total := float64(g.TotalBlocks)

	logf := func(x float64) float64 {
		if x <= 1 {
			return 0
		}
		return math.Log(x)
	}
	out[0] = common * logf(total/bu) * logf(total/bv)
	out[1] = g.ARCS[p]
	if d := bu + bv - common; d > 0 {
		out[2] = common / d
	} else {
		out[2] = 0
	}
	out[3] = common
	if ne := float64(g.NumEdges()); ne > 0 {
		out[4] = (float64(g.Degree(int(u))) + float64(g.Degree(int(v)))) / ne
	} else {
		out[4] = 0
	}
	if total > 0 {
		out[5] = (bu + bv) / total
	} else {
		out[5] = 0
	}
	return out
}

// Config controls supervised meta-blocking.
type Config struct {
	// TrainFraction is the fraction of ground-truth matches used as
	// positive examples (paper: 0.10).
	TrainFraction float64
	// NegativeRatio is the number of negative samples per positive
	// (default 1: balanced, as in the supervised meta-blocking paper).
	NegativeRatio int
	// Seed drives sampling and SGD (deterministic).
	Seed uint64
	// Train overrides the SVM optimizer settings.
	Train TrainConfig
}

// Result is the outcome of a supervised meta-blocking run.
type Result struct {
	// Pairs are the retained comparisons (classified positive), sorted.
	Pairs []model.IDPair
	// Model is the trained classifier.
	Model *SVM
	// TrainSize is the number of labeled examples used.
	TrainSize int
	// Overhead is the total time spent extracting features, training and
	// classifying.
	Overhead time.Duration
}

// Run trains on a sample of the ground truth and classifies every edge
// of the (already built, resident, stats-carrying) blocking graph,
// returning the retained pairs. Edges are enumerated through their
// canonical entries in ascending (u, v) order, which fixes sampling,
// training and output order. Edges used for training are classified
// like any other (the paper's setting evaluates the final block
// collection as a whole).
func Run(g *graph.CSR, truth *model.GroundTruth, cfg Config) *Result {
	start := time.Now()
	if cfg.TrainFraction <= 0 || cfg.TrainFraction > 1 {
		cfg.TrainFraction = 0.10
	}
	if cfg.NegativeRatio <= 0 {
		cfg.NegativeRatio = 1
	}
	rng := stats.NewRNG(cfg.Seed)

	// Index edges (canonical entry ordinals) by match/non-match.
	var edges []canonicalEntry
	var posIdx, negIdx []int
	g.Canonical(func(u, v int32, p int64) {
		if truth.Contains(int(u), int(v)) {
			posIdx = append(posIdx, len(edges))
		} else {
			negIdx = append(negIdx, len(edges))
		}
		edges = append(edges, canonicalEntry{u, v, p})
	})

	res := &Result{}
	if len(posIdx) == 0 || len(negIdx) == 0 {
		// Degenerate graph: no training signal; retain every edge (the
		// conservative choice preserves PC).
		res.Pairs = make([]model.IDPair, len(edges))
		for i, e := range edges {
			res.Pairs[i] = model.IDPair{U: e.u, V: e.v}
		}
		res.Overhead = time.Since(start)
		return res
	}

	nPos := int(math.Ceil(cfg.TrainFraction * float64(len(posIdx))))
	if nPos < 1 {
		nPos = 1
	}
	if nPos > len(posIdx) {
		nPos = len(posIdx)
	}
	nNeg := nPos * cfg.NegativeRatio
	if nNeg > len(negIdx) {
		nNeg = len(negIdx)
	}

	rng.Shuffle(len(posIdx), func(i, j int) { posIdx[i], posIdx[j] = posIdx[j], posIdx[i] })
	rng.Shuffle(len(negIdx), func(i, j int) { negIdx[i], negIdx[j] = negIdx[j], negIdx[i] })

	xs := make([][]float64, 0, nPos+nNeg)
	ys := make([]int, 0, nPos+nNeg)
	for _, i := range posIdx[:nPos] {
		xs = append(xs, Features(g, edges[i].u, edges[i].v, edges[i].p, nil))
		ys = append(ys, +1)
	}
	for _, i := range negIdx[:nNeg] {
		xs = append(xs, Features(g, edges[i].u, edges[i].v, edges[i].p, nil))
		ys = append(ys, -1)
	}
	cfg.Train.Seed = cfg.Seed
	svm := Train(xs, ys, cfg.Train)

	var pairs []model.IDPair
	buf := make([]float64, NumFeatures)
	for _, e := range edges {
		buf = Features(g, e.u, e.v, e.p, buf)
		if svm.Predict(buf) {
			pairs = append(pairs, model.IDPair{U: e.u, V: e.v})
		}
	}
	res.Pairs = pairs
	res.Model = svm
	res.TrainSize = len(xs)
	res.Overhead = time.Since(start)
	return res
}

// canonicalEntry is one edge of the graph: its endpoints (u < v) and
// the position of its canonical entry.
type canonicalEntry struct {
	u, v int32
	p    int64
}
