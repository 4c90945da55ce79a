package blast

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"blast/internal/datasets"
	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/weights"
)

func TestRunPaperExample(t *testing.T) {
	// The Figure 1-3 walkthrough end to end: BLAST retains exactly the
	// two true matches.
	ds := datasets.PaperExample()
	opt := DefaultOptions()
	opt.PurgeRatio = 1.0  // the 4-profile example would purge "abram" at 0.5
	opt.FilterRatio = 1.0 // keep all blocks: the example has no filtering
	res, err := Run(ds, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Quality.PC != 1 || res.Quality.PQ != 1 {
		t.Errorf("PC=%v PQ=%v, want 1/1 (pairs=%v)", res.Quality.PC, res.Quality.PQ, res.Pairs)
	}
	if res.Partitioning == nil || res.Partitioning.NumClusters() < 2 {
		t.Error("LMI should find clusters on the example")
	}
}

func TestRunImprovesPQOverBlocks(t *testing.T) {
	ds := datasets.AR1(0.1, 7)
	res, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Quality.PC < 0.95 {
		t.Errorf("PC = %v, want >= 0.95", res.Quality.PC)
	}
	if res.Quality.PQ < 10*res.BlockQuality.PQ {
		t.Errorf("meta-blocking PQ %v should be >> block PQ %v", res.Quality.PQ, res.BlockQuality.PQ)
	}
}

func TestRunBeatsTraditionalMetaBlocking(t *testing.T) {
	// The paper's core claim, on a scaled ar1: BLAST achieves higher F1
	// than traditional WNP with nearly identical PC (|dPC| <= 6%).
	ds := datasets.AR1(0.1, 11)
	blastRes, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	trad := DefaultOptions()
	trad.Induction = NoInduction
	trad.Scheme = weights.Scheme{Kind: weights.JS}
	trad.Pruning = metablocking.WNP2
	tradRes, err := Run(ds, trad)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if blastRes.Quality.F1 <= tradRes.Quality.F1 {
		t.Errorf("BLAST F1 %v should beat wnp2/JS %v", blastRes.Quality.F1, tradRes.Quality.F1)
	}
	if dpc := (blastRes.Quality.PC - tradRes.Quality.PC) / tradRes.Quality.PC; dpc < -0.06 {
		t.Errorf("dPC = %v, want >= -6%%", dpc)
	}
}

func TestRunDirty(t *testing.T) {
	ds := datasets.Census(0.3, 5)
	res, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Quality.PC < 0.8 {
		t.Errorf("census PC = %v, want >= 0.8", res.Quality.PC)
	}
	if res.Quality.PQ <= res.BlockQuality.PQ {
		t.Errorf("PQ should improve: %v vs %v", res.Quality.PQ, res.BlockQuality.PQ)
	}
}

func TestRunWithLSH(t *testing.T) {
	ds := datasets.AR1(0.1, 3)
	exact, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.LSH = &LSHOptions{Rows: 5, Bands: 30, Seed: 2}
	approx, err := Run(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	// ar1 attribute similarities are well above the ~0.5 threshold: LSH
	// must not change the outcome materially.
	if d := approx.Quality.PC - exact.Quality.PC; d < -0.02 || d > 0.02 {
		t.Errorf("LSH changed PC: %v vs %v", approx.Quality.PC, exact.Quality.PC)
	}
}

func TestRunSupervised(t *testing.T) {
	ds := datasets.AR1(0.1, 9)
	opt := DefaultOptions()
	opt.Supervised = true
	res, err := Run(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.PC < 0.9 || res.Quality.PQ < 0.5 {
		t.Errorf("supervised PC=%v PQ=%v, want strong on easy ar1", res.Quality.PC, res.Quality.PQ)
	}
}

func TestRunAC(t *testing.T) {
	ds := datasets.AR1(0.05, 13)
	opt := DefaultOptions()
	opt.Induction = AC
	res, err := Run(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioning == nil {
		t.Fatal("AC should produce a partitioning")
	}
	if res.Quality.PC < 0.9 {
		t.Errorf("AC PC = %v", res.Quality.PC)
	}
}

func TestRunValidatesDataset(t *testing.T) {
	bad := &model.Dataset{Name: "bad", Kind: model.CleanClean, E1: model.NewCollection("a")}
	if _, err := Run(bad, DefaultOptions()); err == nil {
		t.Error("invalid dataset should error")
	}
}

func TestRunUnknownInduction(t *testing.T) {
	ds := datasets.PaperExample()
	opt := DefaultOptions()
	opt.Induction = Induction(99)
	if _, err := Run(ds, opt); err == nil {
		t.Error("unknown induction should error")
	}
}

func TestRunNilTransformDefaults(t *testing.T) {
	ds := datasets.PaperExample()
	opt := DefaultOptions()
	opt.Transform = nil
	opt.PurgeRatio = 1.0
	opt.FilterRatio = 1.0
	if _, err := Run(ds, opt); err != nil {
		t.Errorf("nil transform should default: %v", err)
	}
}

func TestCleanCleanWrapper(t *testing.T) {
	gen := datasets.AR1(0.05, 21)
	res, err := CleanClean(gen.E1, gen.E2, gen.Truth, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Error("no pairs retained")
	}
	// nil truth allowed
	res2, err := CleanClean(gen.E1, gen.E2, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Quality.PC != 0 {
		t.Error("no truth: quality should be zero value")
	}
}

func TestDirtyWrapper(t *testing.T) {
	gen := datasets.Census(0.2, 21)
	res, err := Dirty(gen.E1, gen.Truth, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Error("no pairs retained")
	}
	if _, err := Dirty(gen.E1, nil, DefaultOptions()); err != nil {
		t.Errorf("nil truth should work: %v", err)
	}
}

func TestOverheadDecomposition(t *testing.T) {
	ds := datasets.AR1(0.05, 2)
	res, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead() != res.InductionTime+res.BlockTime+res.MetaTime {
		t.Error("Overhead() mismatch")
	}
}

func TestInductionString(t *testing.T) {
	if LMI.String() != "lmi" || AC.String() != "ac" || NoInduction.String() != "none" {
		t.Error("Induction.String mismatch")
	}
	if Induction(7).String() == "" {
		t.Error("unknown induction should render")
	}
}

func TestPairsComparableAndDeduplicated(t *testing.T) {
	ds := datasets.PRD(0.1, 17)
	res, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, p := range res.Pairs {
		if !ds.Comparable(int(p.U), int(p.V)) {
			t.Errorf("pair %v not comparable", p)
		}
		if seen[p.Key()] {
			t.Errorf("pair %v duplicated", p)
		}
		seen[p.Key()] = true
	}
}

func TestRestructuredBlocks(t *testing.T) {
	ds := datasets.AR1(0.05, 3)
	res, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rb := res.RestructuredBlocks()
	if err := rb.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if rb.Len() != len(res.Pairs) {
		t.Fatalf("blocks = %d, want %d (one per pair)", rb.Len(), len(res.Pairs))
	}
	if rb.AggregateCardinality() != int64(len(res.Pairs)) {
		t.Error("each restructured block must entail exactly one comparison")
	}
	// Dirty variant.
	dd := datasets.Census(0.2, 3)
	dres, err := Run(dd, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	drb := dres.RestructuredBlocks()
	if err := drb.Validate(); err != nil {
		t.Fatalf("dirty Validate: %v", err)
	}
}

func TestLooseSchemaReport(t *testing.T) {
	ds := datasets.PaperExample()
	opt := DefaultOptions()
	opt.PurgeRatio = 1.0
	opt.FilterRatio = 1.0
	res, err := Run(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	report := res.LooseSchemaReport()
	if report == "" || !containsAll(report, "cluster", "glue", "H=") {
		t.Errorf("report missing sections:\n%s", report)
	}
	// Induction disabled.
	opt.Induction = NoInduction
	res2, _ := Run(ds, opt)
	if res2.LooseSchemaReport() == "" {
		t.Error("disabled induction should still report")
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

func TestRunParallelWorkersIdentical(t *testing.T) {
	ds := datasets.PRD(0.2, 6)
	serial, err := Run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Workers = 4
	par, err := Run(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Pairs) != len(par.Pairs) {
		t.Fatalf("worker count changed output: %d vs %d pairs", len(serial.Pairs), len(par.Pairs))
	}
	for i := range serial.Pairs {
		if serial.Pairs[i] != par.Pairs[i] {
			t.Fatal("parallel pairs differ from serial")
		}
	}
}

// TestRunEngineIdentical pins the public pipeline's output to the
// pairs the retired edge-list engine produced on the same inputs: a
// count and a SHA-256 prefix over the canonical pair list, recorded
// before that engine was deleted. The CSR engine must reproduce them
// byte for byte, at every worker count.
func TestRunEngineIdentical(t *testing.T) {
	pinned := map[string]struct {
		pairs  int
		digest string
	}{
		"ar1":    {229, "c904cecb81008dba"},
		"census": {214, "bc67ffb5da790f1d"},
	}
	for _, ds := range []*model.Dataset{datasets.AR1(0.1, 9), datasets.Census(0.2, 9)} {
		for _, workers := range []int{0, 1, 3} {
			opt := DefaultOptions()
			opt.Workers = workers
			res, err := Run(ds, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := pinned[ds.Name]
			if got := pairsDigest(res.Pairs); len(res.Pairs) != want.pairs || got != want.digest {
				t.Errorf("%s workers=%d: %d pairs digest %s, want %d pairs digest %s",
					ds.Name, workers, len(res.Pairs), got, want.pairs, want.digest)
			}
		}
	}
}

// pairsDigest is the first 16 hex digits of the SHA-256 of the pairs
// as consecutive little-endian (U, V) uint32s.
func pairsDigest(pairs []model.IDPair) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint32(buf[:4], uint32(p.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(p.V))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
