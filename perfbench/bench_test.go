package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"remotedb"
	"remotedb/internal/vfs"
	"remotedb/internal/workload/tpcc"
)

// Small variants of the benchmark's workloads: the same code paths and
// deployment switches, sized to run in seconds.

func smallOLTP(clients int) *workload {
	return smallOLTPLocked(clients, true)
}

func smallOLTPLocked(clients int, locked bool) *workload {
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 1
	cfg.Clients = clients
	cfg.Items = 2000
	return &workload{
		name:      "oltp-small",
		sz:        sizing{localBytes: 1 << 20, bpextBytes: 2 << 20, tempBytes: 1 << 20},
		tailPct:   90,
		simPerSec: 100 * time.Millisecond,
		warm:      20 * time.Millisecond,
		load:      loadOLTP(cfg, false, locked),
	}
}

func smallOLAP() *workload {
	const sf = 0.002
	return &workload{
		name:    "olap-small",
		sz:      sizing{localBytes: 1 << 20, bpextBytes: 2 << 20, tempBytes: 16 << 20, segBytes: segBytes(sf), grant: 128 << 10},
		tailPct: 50,
		load:    loadOLAP(sf, 2),
		rounds:  func(int) int { return 1 },
		ref:     func() (map[int]int64, error) { return tpchReference(sf) },
	}
}

func mustRun(t *testing.T, wl *workload, seed int64, traced bool) *result {
	t.Helper()
	res, _, err := runOnce(wl, seed, 1, traced, true)
	if err != nil {
		t.Fatalf("%s seed %d: %v", wl.name, seed, err)
	}
	if res.attempted == 0 {
		t.Fatalf("%s seed %d: no ops attempted", wl.name, seed)
	}
	return res
}

// The same seed must give the same simulated metrics and layer
// counters, bit for bit.
func TestSameSeedSameSimMetrics(t *testing.T) {
	wl := smallOLTP(8)
	a, b := mustRun(t, wl, 7, false), mustRun(t, wl, 7, false)
	if !reflect.DeepEqual(a.sim, b.sim) {
		t.Fatalf("same seed, different simulated results:\n%v\n%v", a.sim, b.sim)
	}
	if c := mustRun(t, wl, 8, false); reflect.DeepEqual(a.sim, c.sim) {
		t.Fatalf("seeds 7 and 8 gave identical results; the seed does not reach the inputs")
	}
}

// The engine has no concurrency control. With the driver's locks,
// concurrent clients leave the TPC-C invariants intact; without them
// Payments lose each other's updates and the check must say so.
func TestDriverLocksKeepInvariants(t *testing.T) {
	res := mustRun(t, smallOLTP(8), 4, false)
	if res.failed != 0 {
		t.Fatalf("locked: %d failed ops: %v %v", res.failed, res.wrong, res.errs)
	}
	res = mustRun(t, smallOLTPLocked(8, false), 4, false)
	if !strings.Contains(strings.Join(res.wrong, "\n"), "w_ytd") {
		t.Fatalf("unlocked: lost w_ytd updates not caught, got %v", res.wrong)
	}
}

// The span wrappers cost no simulated time and change no path, so the
// traced run must equal the untraced one exactly.
func TestTracedRunEqualsUntraced(t *testing.T) {
	for _, wl := range []*workload{smallOLTP(8), smallOLAP()} {
		plain, traced := mustRun(t, wl, 3, false), mustRun(t, wl, 3, true)
		if !reflect.DeepEqual(plain.sim, traced.sim) {
			for k, v := range plain.sim {
				if traced.sim[k] != v {
					t.Errorf("%s: %s = %v untraced, %v traced", wl.name, k, v, traced.sim[k])
				}
			}
			t.Fatalf("%s: traced run differs from untraced run", wl.name)
		}
		if len(traced.tr.spans) == 0 {
			t.Fatalf("%s: traced run recorded no spans", wl.name)
		}
		for _, f := range []string{"data", "bpext"} {
			if traced.layer["span.file."+f+".read_per_op"] == 0 {
				t.Errorf("%s: no %s read spans", wl.name, f)
			}
		}
	}
}

// The wrapper must expose exactly the optional interfaces of the file it
// wraps, or the engine would take other paths when traced.
func TestWrapperKeepsOptionalInterfaces(t *testing.T) {
	k := remotedb.NewKernel(1)
	var files []remotedb.File
	var err error
	k.Go("t", func(p *remotedb.Proc) {
		var st *stack
		st, err = startStack(p, sizing{localBytes: 1 << 20, bpextBytes: 1 << 20, tempBytes: 1 << 20}, nil)
		if err != nil {
			return
		}
		defer st.close(p)
		files = []remotedb.File{st.temp, st.bpext, vfs.NewDeviceFile("d", st.db.HDD), remotedb.NewMemFile("m")}
	})
	k.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, f := range files {
		if got, want := optionalSet(tr.wrap(f)), optionalSet(f); got != want {
			t.Errorf("%T: wrapper has %q, file has %q", f, got, want)
		}
	}
	if optionalSet(files[0]) != "vector,unavailable,degraded,push" {
		t.Errorf("remote file optional set %q; the list in optionalIfaces is stale", optionalSet(files[0]))
	}
}

// With one client the TPC-C invariants hold; a planted violation must be
// caught. The same goes for a TPC-H answer that differs from the
// reference.
func TestCheckCatchesPlantedViolation(t *testing.T) {
	k := remotedb.NewKernel(5)
	var err error
	k.Go("t", func(p *remotedb.Proc) {
		err = func() error {
			wl := smallOLTP(1)
			st, err := startStack(p, wl.sz, nil)
			if err != nil {
				return err
			}
			defer st.close(p)
			a, err := wl.load(p, st)
			if err != nil {
				return err
			}
			o := a.(*oltp)
			for i := int64(0); i < 20; i++ {
				if err := o.newOrder(p, 0, i%10, i); err != nil {
					return err
				}
				if err := o.db.PaymentTxn(p, 0, i%10, i); err != nil {
					return err
				}
			}
			if wrong, err := o.check(p); err != nil || len(wrong) != 0 {
				t.Errorf("clean database: wrong %v, err %v", wrong, err)
			}
			d, err := o.db.District.Get(p, int64(0), int64(3))
			if err != nil {
				return err
			}
			d[2] = d[2].(float64) + 1
			if err := o.db.District.Update(p, d); err != nil {
				return err
			}
			o.newOrders++
			wrong, err := o.check(p)
			if err != nil {
				return err
			}
			joined := strings.Join(wrong, "\n")
			if !strings.Contains(joined, "warehouse 0") || !strings.Contains(joined, "new orders rows") {
				t.Errorf("planted violations not caught, got %q", joined)
			}
			return nil
		}()
	})
	k.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	wl := smallOLAP()
	clean := wl.ref
	wl.ref = func() (map[int]int64, error) {
		ref, err := clean()
		ref[6]++
		return ref, err
	}
	res := mustRun(t, wl, 2, false)
	if len(res.wrong) != 2 || !strings.Contains(res.wrong[0], "Q6") {
		t.Fatalf("planted Q6 mismatch not caught: %v", res.wrong)
	}
}
