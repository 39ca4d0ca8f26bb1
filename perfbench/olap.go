package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"remotedb"
	"remotedb/internal/engine/catalog"
	"remotedb/internal/workload/tpch"
)

// olap drives concurrent TPC-H streams. Each stream runs rounds of the
// 22 queries, every round in its own seeded order, so every run
// executes the same multiset of queries and only their interleaving
// depends on the seed.
type olap struct {
	db      *tpch.DB
	eng     *remotedb.Engine
	streams int
	rounds  int           // set by the driver from --seconds
	ref     map[int]int64 // query id -> RowsOut on the reference engine
	wrong   []string

	spilledParts, spilledRuns int64
}

// Push-segment sizing: bytes reserved per row (encoded row, 4-byte
// length prefix, chunk padding) when mirroring a table donor-side.
const (
	lineitemSegRow = 160
	ordersSegRow   = 96
)

func loadOLAP(sf float64, streams int) func(*remotedb.Proc, *stack) (app, error) {
	return func(p *remotedb.Proc, st *stack) (app, error) {
		db, err := tpch.Load(p, st.eng, sf)
		if err != nil {
			return nil, fmt.Errorf("load tpch: %w", err)
		}
		if err := st.eng.BP.FlushAll(p); err != nil {
			return nil, fmt.Errorf("flush after load: %w", err)
		}
		// Mirror the two largest tables donor-side so the planner may
		// place their scans at the donors.
		_, _, _, _, nOrd, nLine := tpch.Counts(sf)
		for _, seg := range []struct {
			t     *catalog.Table
			bytes int64
		}{{db.Lineitem, int64(nLine) * lineitemSegRow}, {db.Orders, int64(nOrd) * ordersSegRow}} {
			f, err := st.createRemote(p, "seg-"+seg.t.Name, seg.bytes)
			if err != nil {
				return nil, err
			}
			if err := st.eng.BuildPushSegment(p, seg.t, f); err != nil {
				return nil, fmt.Errorf("push segment %s: %w", seg.t.Name, err)
			}
		}
		return &olap{db: db, eng: st.eng, streams: streams}, nil
	}
}

// segBytes is the remote memory the push segments of scale factor sf
// take.
func segBytes(sf float64) int64 {
	_, _, _, _, nOrd, nLine := tpch.Counts(sf)
	return int64(nLine)*lineitemSegRow + int64(nOrd)*ordersSegRow
}

func (o *olap) clients() int { return o.streams }

func (o *olap) client(p *remotedb.Proc, _ int, rng *rand.Rand, do doFunc) {
	queries := tpch.Queries()
	for r := 0; r < o.rounds; r++ {
		for _, i := range rng.Perm(len(queries)) {
			q := queries[i]
			ok := do("q"+strconv.Itoa(q.ID), false, func() error {
				ctx := o.eng.NewCtx(p)
				if err := q.Run(ctx, o.db); err != nil {
					return err
				}
				o.spilledParts += ctx.SpilledParts
				o.spilledRuns += ctx.SpilledRuns
				if want := o.ref[q.ID]; ctx.RowsOut != want {
					o.wrong = append(o.wrong, fmt.Sprintf("Q%d returned %d rows, reference %d", q.ID, ctx.RowsOut, want))
				}
				return nil
			})
			if !ok {
				return
			}
		}
	}
}

// check reports the queries whose row counts differed from the
// reference.
func (o *olap) check(*remotedb.Proc) ([]string, error) { return o.wrong, nil }

// tpchReference runs every query once on a plain local-memory engine
// (DOP 1, pushdown off, no remote memory) and returns each query's
// RowsOut.
func tpchReference(sf float64) (map[int]int64, error) {
	ref := make(map[int]int64)
	var err error
	k := remotedb.NewKernel(1)
	k.Go("reference", func(p *remotedb.Proc) {
		err = func() error {
			srv := remotedb.NewCluster(k).AddServer("ref", remotedb.DefaultServerConfig())
			eng, err := remotedb.StartEngine(p, srv, remotedb.EngineFiles{
				Data: remotedb.NewMemFile("data"),
				Log:  remotedb.NewMemFile("log"),
				Temp: remotedb.NewMemFile("tempdb"),
			}, remotedb.WithBufferFrames(16384), remotedb.WithDOP(1), remotedb.WithPushdown(false))
			if err != nil {
				return err
			}
			defer eng.Shutdown()
			db, err := tpch.Load(p, eng, sf)
			if err != nil {
				return err
			}
			for _, q := range tpch.Queries() {
				ctx := eng.NewCtx(p)
				if err := q.Run(ctx, db); err != nil {
					return fmt.Errorf("reference Q%d: %w", q.ID, err)
				}
				ref[q.ID] = ctx.RowsOut
			}
			return nil
		}()
	})
	k.Run(0)
	return ref, err
}
