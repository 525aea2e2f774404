package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// specMetric is one metric BENCHMARK.json names.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runOnce runs one workload for one second in a scratch directory (the
// traced run writes its spans and events there) and returns the printed
// report and its parsed last line.
func runOnce(t *testing.T, name string, traced int) (string, result) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out bytes.Buffer
	if err := run(&out, name, 1, 1, traced); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	return out.String(), res
}

func checkMetrics(t *testing.T, name string, res result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", name, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", name, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestEveryWorkloadPrintsEndToEnd is the smoke run of every workload: each
// end-to-end metric is printed with its unit, op_us_p90 is printed on the
// report, every op passes the oracle and the printed error rate is 0.
func TestEveryWorkloadPrintsEndToEnd(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		out, res := runOnce(t, w.Name, 0)
		checkMetrics(t, w.Name, res, spec.EndToEnd)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		if !strings.Contains(out, "error_rate 0 ") {
			t.Errorf("%s: error rate is not 0:\n%s", w.Name, out)
		}
		if !strings.Contains(out, "\nop_us_p90 ") {
			t.Errorf("%s: op_us_p90 not printed:\n%s", w.Name, out)
		}
	}
}

// TestTracedRunPrintsPerLayer checks that a traced run prints every
// per-layer metric with its unit and that its ops pass the oracle.
func TestTracedRunPrintsPerLayer(t *testing.T) {
	spec := loadSpec(t)
	_, res := runOnce(t, "small", 1)
	checkMetrics(t, "small traced", res, spec.PerLayer)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestOracleCountsWrongExpected makes sure the oracle is alive: a wrong
// expected buffer, or a changed input, must count as failed ops.
func TestOracleCountsWrongExpected(t *testing.T) {
	b, err := newMPIBench(7, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.newWorld()
	defer b.world.Close()
	for i := 0; i < 2; i++ {
		res := b.runRound()
		for p, failed := range res.failed {
			if failed {
				t.Fatalf("round %d: %s failed on correct code", i, collNames[res.order[p]])
			}
		}
	}

	v := b.rounds % variants
	b.in.sum[v][collAllreduce][3] ^= 0x10
	res := b.runRound()
	b.in.sum[v][collAllreduce][3] ^= 0x10
	for p, k := range res.order {
		if res.failed[p] != (k == collAllreduce) {
			t.Errorf("wrong Allreduce expectation: %s failed=%v", collNames[k], res.failed[p])
		}
	}

	// A Bcast that leaves the non-root outputs stale must fail, even when
	// the next variant's root block sits where the last one's did: with
	// 64 B blocks, roots 20 and 11 of consecutive variants alias.
	v = b.rounds % variants
	b.in.root[v%rootSets][collBcast] = 20
	b.in.root[(v+1)%rootSets][collBcast] = 11
	b.runRound()
	if !bytes.Equal(b.bufs[0].bcast, b.in.blockOf((v+1)%variants, collBcast, 11)) {
		t.Fatal("roots 20 and 11 do not alias, so the stale Bcast case checks nothing")
	}
	res = b.nextRound(canonicalOrder)
	b.check(&res) // no collective ran, so every output is stale
	if !res.failed[collBcast] {
		t.Error("stale non-root Bcast output not counted as failed")
	}

	b.in.pristine[len(b.in.pristine)-1] ^= 1
	res = b.runRound()
	for p, k := range res.order {
		if !res.failed[p] {
			t.Errorf("changed input: %s not counted as failed", collNames[k])
		}
	}
}

// TestModelOracleCountsWrongMakespan perturbs one reference makespan
// beyond the agreement bound, which must fail, and another within it,
// which must pass but count as inexact.
func TestModelOracleCountsWrongMakespan(t *testing.T) {
	b := newModelBench(7)
	var checked simTally
	if _, err := b.setup(7, 0, &checked); err != nil {
		t.Fatal(err)
	}
	if checked.failed != 0 {
		t.Fatalf("%d reference simulations failed", checked.failed)
	}
	t0 := simTally{latUs: make([][]float64, len(b.cases))}
	b.cases[0].want *= 1 + 10*simAgreement
	b.cases[3].want *= 1 + simAgreement/10
	b.simulate(0, &t0)
	b.simulate(3, &t0)
	if t0.ops != 2 || t0.failed != 1 || t0.inexact != 1 {
		t.Errorf("ops=%d failed=%d inexact=%d, want 2, 1 and 1", t0.ops, t0.failed, t0.inexact)
	}
}
