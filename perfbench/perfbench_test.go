package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// repeatingCounters must read the same on every job of one seed: they count
// work per (query block, volume) unit or per SOM block, which does not
// depend on which worker the master hands a unit to.
var repeatingCounters = []string{
	"blast.word.hits", "blast.exts.ungapped", "blast.exts.gapped", "blast.hsps.reported",
	"mrmpi.map.tasks", "mrmpi.kv.emitted", "mrmpi.spill.bytes", "mpi.sends", "mpi.collectives",
}

// dispatchCounters depend on which worker ran which unit under master
// dispatch: a worker that receives the volume it already caches skips a
// load, and a hit emitted on the rank its key hashes to is never sent. On
// blast-reads five jobs of one seed read 103–108 misses and 88.4–89.2 KB
// exchanged. They repeat exactly on the SOM workloads, which load no
// volumes and emit no pairs.
var dispatchCounters = []string{
	"blastdb.cache.misses", "blastdb.cache.bytes.loaded", "mrmpi.exchange.sent.bytes",
	"mpi.send.bytes",
}

// tracedPair sets a workload up, computes its reference and runs two traced
// jobs, failing the test on any job error or ledger breach.
func tracedPair(t *testing.T, name string, seed int64) (*ledger, [2]traceView) {
	t.Helper()
	inst, _, err := setUp(workloads[name], t.TempDir(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.reference(); err != nil {
		t.Fatal(err)
	}
	led := &ledger{}
	for i := 0; i < 2; i++ {
		r := runJob(inst, true)
		if r.err != nil {
			t.Fatalf("%s job %d: %v", name, i, r.err)
		}
		led.add(r)
	}
	if led.breaches > 0 {
		t.Fatalf("%s: %d ledger breaches", name, led.breaches)
	}
	return led, [2]traceView{led.views[0], led.views[1]}
}

func TestWorkloadTripwires(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			_, v := tracedPair(t, name, 7)
			check := append([]string(nil), repeatingCounters...)
			if name != "blast-reads" {
				check = append(check, dispatchCounters...)
			}
			for _, c := range check {
				if v[0].counts[c] != v[1].counts[c] {
					t.Errorf("count %s differs between two jobs of one seed: %d vs %d",
						c, v[0].counts[c], v[1].counts[c])
				}
			}
			s := v[0].shares
			switch name {
			case "blast-reads":
				if s["kernel"] < 0.5 || v[0].values["blast.search_s"] <= v[0].values["blast.build_s"] {
					t.Errorf("blast kernel does not dominate: shares %v", s)
				}
			case "som-map":
				if s["kernel"] < 0.5 || v[0].values["som.kernel_s"] == 0 || v[0].values["blast.search_s"] != 0 {
					t.Errorf("som kernel does not dominate: shares %v", s)
				}
			case "som-rgb":
				if d := s["framework"] + s["transport"]; d < 1.0/3 {
					t.Errorf("mrmpi+mpi dispatch is %.3f of worker time, want at least 1/3 (shares %v)", d, s)
				}
			}
		})
	}
}

// TestSeedsChangeInputs checks that one seed regenerates identical input
// files and another seed different ones.
func TestSeedsChangeInputs(t *testing.T) {
	inputs := map[string]string{"blast-reads": "reads.fa", "som-map": "vectors.bin", "som-rgb": "vectors.bin"}
	for _, name := range workloadNames() {
		read := func(seed int64) []byte {
			dir := t.TempDir()
			if _, _, err := workloads[name](dir, seed); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, inputs[name]))
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		a, b, c := read(1), read(1), read(2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 generated different inputs twice", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
	}
}

// TestLedgerReconciles feeds the breakdown a hand-built trace: well-nested
// spans on two ranks must split the wall into self time plus idle exactly, a
// collective's nested receive must count once towards collective time, and
// spans overlapping on two tracks of one rank must show as a ledger gap.
func TestLedgerReconciles(t *testing.T) {
	ev := func(typ obs.EventType, rank int, cat, name string, ts int64) obs.Event {
		return obs.Event{Type: typ, Rank: rank, Cat: cat, Name: name, TS: ts}
	}
	b, e := obs.BeginEvent, obs.EndEvent
	events := []obs.Event{
		ev(b, 1, "mrmpi", "map", 10),
		ev(b, 1, "mrmpi", "map.task", 20),
		ev(b, 1, "mrsom", "kernel", 25),
		ev(e, 1, "mrsom", "kernel", 75),
		ev(e, 1, "mrmpi", "map.task", 80),
		ev(b, 1, "mpi", "BcastFloat64s", 85),
		ev(b, 1, "mpi", "Recv", 86),
		ev(e, 1, "mpi", "Recv", 95),
		ev(e, 1, "mpi", "BcastFloat64s", 96),
		ev(e, 1, "mrmpi", "map", 100),
		ev(b, 2, "mrmpi", "map", 10),
		ev(e, 2, "mrmpi", "map", 60),
	}
	v := breakdown(events, 110)
	if gap := v.values["obs.ledger_gap"]; gap > 1e-12 {
		t.Errorf("ledger gap %g on a well-nested trace", gap)
	}
	if got := v.values["som.kernel_s"] * 1e9; got != 50 {
		t.Errorf("som.kernel_s = %gns, want 50", got)
	}
	if got := v.values["mpi.collective_s"] * 1e9; got != 11 {
		t.Errorf("mpi.collective_s = %gns, want 11 (the Bcast including its Recv)", got)
	}
	if got := v.values["mrmpi.dispatch_wait_s"] * 1e9; got != 90-60+50 {
		t.Errorf("mrmpi.dispatch_wait_s = %gns, want 80", got)
	}
	if got := v.values["mrmpi.map_imbalance"]; got != 2 {
		t.Errorf("mrmpi.map_imbalance = %g, want 2 (one of two workers ran every task)", got)
	}
	// Worker time: 2 ranks × 110ns; kernel 50ns, idle = 2×(90−covered).
	if got := v.shares["kernel"]; got != 50.0/220 {
		t.Errorf("kernel share %g, want %g", got, 50.0/220)
	}

	overlapping := append(events,
		obs.Event{Type: b, Rank: 2, Track: 1, Cat: "mrsom", Name: "kernel", TS: 20},
		obs.Event{Type: e, Rank: 2, Track: 1, Cat: "mrsom", Name: "kernel", TS: 50},
	)
	if gap := breakdown(overlapping, 110).values["obs.ledger_gap"]; gap < 0.05 {
		t.Errorf("ledger gap %g hides 30ns of double-counted time", gap)
	}
}
