package main

import (
	"fmt"
	"time"

	"remotedb"
	"remotedb/internal/core"
	"remotedb/internal/vfs"
)

// sizing is everything a workload may change about the deployment: how
// much memory sits where. Switches (design, replication, hedging,
// pushdown, ...) are fixed in startStack and identical for every
// workload.
type sizing struct {
	localBytes int64 // local buffer pool
	bpextBytes int64 // remote buffer-pool extension
	tempBytes  int64 // remote TempDB
	segBytes   int64 // remote pushable segments (olap only)
	grant      int64 // per-query memory grant (0 = engine default)
}

const (
	pageSize = 8192
	mrBytes  = 8 << 20 // donor memory-region size
	donors   = 3       // K=2 replicas plus one donor to migrate to
)

// stack is the deployed configuration: the paper's Custom design (RDMA,
// sync completion, preregistered staging) with remote TempDB and BPExt
// files replicated K=2 under integrity framing, hedged reads and donor
// health checks on, and pushdown on. Everything else is at its default.
type stack struct {
	db     *remotedb.Server
	broker *remotedb.BrokerCluster
	client *remotedb.RemoteClient
	fs     *remotedb.RemoteFS
	temp   *remotedb.RemoteFile
	bpext  *remotedb.RemoteFile
	eng    *remotedb.Engine
}

// startStack assembles the deployment the way a library user does:
// broker, donor proxies, remote FS, the remote files, then the engine
// over them. wrap, when non-nil, is applied to each engine file (data,
// log, tempdb, bpext) before the engine sees it; the traced run passes
// its span-recording wrapper here.
func startStack(p *remotedb.Proc, sz sizing, wrap func(remotedb.File) remotedb.File) (*stack, error) {
	k := p.Kernel()
	cl := remotedb.NewCluster(k)
	st := &stack{db: cl.AddServer("db1", remotedb.DefaultServerConfig())}

	store := remotedb.NewMetaStore(k, 10*time.Microsecond)
	st.broker = remotedb.StartBroker(p, store)
	stripeCap := core.StripeCapacity(mrBytes, 0)
	stripes := ceilDiv(sz.tempBytes, stripeCap) + ceilDiv(sz.bpextBytes, stripeCap) + ceilDiv(sz.segBytes, stripeCap)
	const replicas = 2
	mrsPerDonor := int(ceilDiv(stripes*replicas, donors)) + 4
	for i := 0; i < donors; i++ {
		mem := cl.AddServer(fmt.Sprintf("mem%d", i+1), remotedb.DefaultServerConfig())
		if _, err := st.broker.AddProxy(p, mem, mrBytes, mrsPerDonor); err != nil {
			return nil, fmt.Errorf("add proxy: %w", err)
		}
	}

	st.client = remotedb.NewRemoteClient(p, st.db, remotedb.DefaultRemoteClientConfig())
	st.fs = remotedb.MountRemoteFS(p, st.broker, st.client,
		remotedb.WithProtocol(remotedb.ProtoRDMA),
		remotedb.WithReplication(replicas),
		remotedb.WithIntegrity(true),
		remotedb.WithHedging(true),
		remotedb.WithHealthChecks(true),
		remotedb.WithSalvage(st.salvage))

	var err error
	if st.temp, err = st.createRemote(p, "tempdb", sz.tempBytes); err != nil {
		return nil, err
	}
	if st.bpext, err = st.createRemote(p, "bpext", sz.bpextBytes); err != nil {
		return nil, err
	}
	if wrap == nil {
		wrap = func(f remotedb.File) remotedb.File { return f }
	}
	files := remotedb.EngineFiles{
		Data:  wrap(vfs.NewDeviceFile("data", st.db.HDD)),
		Log:   wrap(vfs.NewDeviceFile("log", st.db.HDD)),
		Temp:  wrap(st.temp),
		BPExt: wrap(st.bpext),
	}
	opts := []remotedb.Option{
		remotedb.WithBufferFrames(int(sz.localBytes / pageSize)),
		remotedb.WithBPExtSlots(int(sz.bpextBytes / pageSize)),
		remotedb.WithPushdown(true),
	}
	if sz.grant > 0 {
		opts = append(opts, remotedb.WithGrant(sz.grant))
	}
	if st.eng, err = remotedb.StartEngine(p, st.db, files, opts...); err != nil {
		return nil, fmt.Errorf("start engine: %w", err)
	}
	return st, nil
}

func (st *stack) createRemote(p *remotedb.Proc, name string, size int64) (*remotedb.RemoteFile, error) {
	f, err := st.fs.Create(p, name, size)
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", name, err)
	}
	if err := f.OpenConn(p); err != nil {
		return nil, fmt.Errorf("open %s: %w", name, err)
	}
	return f, nil
}

// salvage is the FS-wide recovery callback after a lost stripe is
// re-leased: the extension drops the mappings of the lost range (its
// pages were all clean) and revives. Spill data in TempDB is transient
// and needs none.
func (st *stack) salvage(p *remotedb.Proc, cf *remotedb.RemoteFile, off, n int64) error {
	if cf != st.bpext || st.eng == nil {
		return nil
	}
	if ext := st.eng.BP.Extension(); ext != nil {
		ext.InvalidateRange(off, n)
		ext.Revive()
	}
	return nil
}

// close stops every background process so the kernel's queue drains.
func (st *stack) close(p *remotedb.Proc) {
	st.eng.Shutdown()
	st.fs.CloseAll(p)
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
