package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// testScale shrinks every workload so that the self-test runs each one
// in seconds.
const testScale = 0.1

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at the test scale and returns its info and
// result lines.
func runTiny(t *testing.T, workload string, trace bool, pins map[string]pin) (map[string]any, result, error) {
	t.Helper()
	cfg := config{workload: workload, seed: 42, seconds: 0.2, trace: trace,
		workdir: t.TempDir(), scale: testScale, pins: pins}
	var out bytes.Buffer
	err := run(context.Background(), cfg, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		return nil, result{}, err
	}
	var info struct {
		Info map[string]any `json:"info"`
	}
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-2]), &info); jerr != nil {
		t.Fatalf("%s: info line: %v", workload, jerr)
	}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("%s: result line: %v", workload, jerr)
	}
	return info.Info, res, err
}

// TestEveryMetricPrinted runs each workload once untraced and once
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit and that every check passed.
func TestEveryMetricPrinted(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			_, res, err := runTiny(t, w.Name, trace, nil)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestDigestsFailByName checks that the correct pins pass, and that a
// corrupted input, pairs or served digest fails the run naming it.
func TestDigestsFailByName(t *testing.T) {
	zero := strings.Repeat("0", 64)
	cases := []struct {
		workload, digest string
		corrupt          func(*pin)
	}{
		{"batch-cddb", "input digest", func(p *pin) { p.Input = zero }},
		{"batch-cddb", "pairs digest", func(p *pin) { p.Pairs = zero }},
		{"serve-cddb", "served digest", func(p *pin) { p.Served = zero }},
	}
	good := map[string]pin{}
	for _, c := range cases {
		key := pinKey(c.workload, 42, testScale)
		if _, ok := good[c.workload]; !ok {
			info, _, err := runTiny(t, c.workload, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			p := pin{Input: info["input_sha256"].(string), Pairs: info["pairs_sha256"].(string)}
			if served, ok := info["served_sha256"].(string); ok {
				p.Served = served
			}
			if _, _, err := runTiny(t, c.workload, false, map[string]pin{key: p}); err != nil {
				t.Fatalf("%s with the correct pins: %v", c.workload, err)
			}
			good[c.workload] = p
		}
		bad := good[c.workload]
		c.corrupt(&bad)
		_, res, err := runTiny(t, c.workload, false, map[string]pin{key: bad})
		if err == nil || !strings.Contains(err.Error(), c.digest+" mismatch") {
			t.Errorf("%s, corrupted %s: err = %v, want a %s mismatch", c.workload, c.digest, err, c.digest)
		}
		if c.digest != "input digest" && (res.Correct || res.Failed != 1 || res.Metrics["success_frac"].Value >= 1) {
			t.Errorf("%s, corrupted %s: correct=%v failed=%d success_frac=%v, want one failed check",
				c.workload, c.digest, res.Correct, res.Failed, res.Metrics["success_frac"].Value)
		}
	}
}
