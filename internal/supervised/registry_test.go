package supervised

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/graph"
)

// TestRunRegistryPairsPinned pins the supervised pairs on every
// registry dataset to the values the edge-list blocking graph produced
// before it was retired: a pair count and the first 16 hex digits of a
// SHA-256 over the pairs as consecutive little-endian (U, V) uint32s.
// Sampling, training and classification all follow the canonical edge
// order, so the CSR port must reproduce them bit for bit, at every
// graph-build worker count.
func TestRunRegistryPairsPinned(t *testing.T) {
	pinned := map[string]struct {
		pairs  int
		digest string
	}{
		"ar1":    {109, "ee1becf638a087af"},
		"ar2":    {49, "fe7c993954bc2cec"},
		"prd":    {54, "6ea011c1a342bbb5"},
		"mov":    {223, "a187146623004e3f"},
		"dbp":    {5673, "b3256fef0a11753f"},
		"cddb":   {61, "ef4ade41c3bcdef2"},
		"census": {46, "7817c7ba9eb656fe"},
		"cora":   {720, "9b189fa304886aeb"},
	}
	scales := map[string]float64{"dbp": 0.02, "mov": 0.01, "ar2": 0.02, "cddb": 0.03}
	for _, name := range datasets.AllNames() {
		gen, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scale, ok := scales[name]
		if !ok {
			scale = 0.05
		}
		ds := gen(scale, 42)
		c := blocking.CleanWorkflow(blocking.TokenBlocking(ds), 0.5, 0.8)
		want, ok := pinned[name]
		if !ok {
			t.Fatalf("%s: no pinned digest", name)
		}
		for _, workers := range []int{1, 3} {
			g, err := graph.BuildCSR(context.Background(), c, nil, workers)
			if err != nil {
				t.Fatal(err)
			}
			res := Run(g, ds.Truth, Config{TrainFraction: 0.1, NegativeRatio: 1, Seed: 42})
			h := sha256.New()
			var buf [8]byte
			for _, p := range res.Pairs {
				binary.LittleEndian.PutUint32(buf[:4], uint32(p.U))
				binary.LittleEndian.PutUint32(buf[4:], uint32(p.V))
				h.Write(buf[:])
			}
			if got := hex.EncodeToString(h.Sum(nil))[:16]; len(res.Pairs) != want.pairs || got != want.digest {
				t.Errorf("%s workers=%d: %d pairs digest %s, want %d pairs digest %s",
					name, workers, len(res.Pairs), got, want.pairs, want.digest)
			}
		}
	}
}
