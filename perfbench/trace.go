package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"remotedb"
	"remotedb/internal/rmem"
	"remotedb/internal/vfs"
)

// span is one recorded interval in simulated time. Op spans have
// file == ""; file spans carry the op that was running on the issuing
// proc (0 when no client op was: the lazy writer, the extension
// flusher, exchange producers and other background procs).
type span struct {
	op         int64
	name       string // "span.op.<txn|qN>" or "span.file.<file>.<read|write|push>"
	start, end time.Duration
	file       string
}

// tracer keeps spans in memory until the run ends. The simulation runs
// one proc at a time, so no locking is needed.
type tracer struct {
	spans []span
	cur   map[*remotedb.Proc]int64 // proc -> op it is running
	next  int64
}

func newTracer() *tracer { return &tracer{cur: make(map[*remotedb.Proc]int64)} }

// begin marks p as running a new op and returns its id.
func (t *tracer) begin(p *remotedb.Proc) int64 {
	t.next++
	t.cur[p] = t.next
	return t.next
}

// end records the op span and detaches p from it.
func (t *tracer) end(p *remotedb.Proc, id int64, name string, start time.Duration) {
	t.spans = append(t.spans, span{op: id, name: "span.op." + name, start: start, end: p.Now()})
	delete(t.cur, p)
}

func (t *tracer) file(p *remotedb.Proc, file, kind string, start time.Duration) {
	t.spans = append(t.spans, span{op: t.cur[p], name: "span.file." + file + "." + kind, start: start, end: p.Now(), file: file})
}

// wrap returns a pass-through wrapper over f that records one span per
// call. It charges no simulated time and exposes exactly the optional
// interfaces f has, so the engine takes the same paths through it.
func (t *tracer) wrap(f remotedb.File) remotedb.File {
	base := tracedFile{f: f, t: t}
	switch has := optionalSet(f); has {
	case "":
		return &base
	case "vector":
		return &tracedVectorFile{tracedFile: base, v: f.(vfs.VectorFile)}
	case "vector,unavailable,degraded,push":
		r := f.(remoteFile)
		return &tracedRemoteFile{tracedVectorFile: tracedVectorFile{tracedFile: base, v: r}, r: r}
	default:
		panic(fmt.Sprintf("perfbench: no span wrapper for %T (optional interfaces %q)", f, has))
	}
}

// pushFile is the donor-side push-read surface of a remote file.
type pushFile interface {
	PushRead(p *remotedb.Proc, off, n int64, q *rmem.PushQuery) ([]byte, rmem.PushStats, error)
	PushChunk() int
}

// remoteFile is the optional surface of a remote-memory file that the
// engine probes for: vectored I/O, the degraded/unavailable signals the
// buffer pool's extension checks, and donor-side push reads.
type remoteFile interface {
	vfs.VectorFile
	Unavailable() bool
	Degraded() bool
	pushFile
}

// optionalIfaces lists every optional interface the engine type-asserts
// a file against; the wrapper must match the wrapped file on each.
var optionalIfaces = []struct {
	name string
	has  func(any) bool
}{
	{"vector", func(f any) bool { _, ok := f.(vfs.VectorFile); return ok }},
	{"unavailable", func(f any) bool { _, ok := f.(interface{ Unavailable() bool }); return ok }},
	{"degraded", func(f any) bool { _, ok := f.(interface{ Degraded() bool }); return ok }},
	{"push", func(f any) bool { _, ok := f.(pushFile); return ok }},
}

// optionalSet names, comma-separated, the optional interfaces f has.
func optionalSet(f any) string {
	var has []string
	for _, o := range optionalIfaces {
		if o.has(f) {
			has = append(has, o.name)
		}
	}
	return strings.Join(has, ",")
}

type tracedFile struct {
	f remotedb.File
	t *tracer
}

func (w *tracedFile) Name() string                 { return w.f.Name() }
func (w *tracedFile) Size() int64                  { return w.f.Size() }
func (w *tracedFile) Close(p *remotedb.Proc) error { return w.f.Close(p) }

func (w *tracedFile) ReadAt(p *remotedb.Proc, b []byte, off int64) error {
	t0 := p.Now()
	err := w.f.ReadAt(p, b, off)
	w.t.file(p, w.f.Name(), "read", t0)
	return err
}

func (w *tracedFile) WriteAt(p *remotedb.Proc, b []byte, off int64) error {
	t0 := p.Now()
	err := w.f.WriteAt(p, b, off)
	w.t.file(p, w.f.Name(), "write", t0)
	return err
}

type tracedVectorFile struct {
	tracedFile
	v vfs.VectorFile
}

func (w *tracedVectorFile) ReadAtV(p *remotedb.Proc, vecs []vfs.Vec) error {
	t0 := p.Now()
	err := w.v.ReadAtV(p, vecs)
	w.t.file(p, w.f.Name(), "read", t0)
	return err
}

func (w *tracedVectorFile) WriteAtV(p *remotedb.Proc, vecs []vfs.Vec) error {
	t0 := p.Now()
	err := w.v.WriteAtV(p, vecs)
	w.t.file(p, w.f.Name(), "write", t0)
	return err
}

type tracedRemoteFile struct {
	tracedVectorFile
	r remoteFile
}

func (w *tracedRemoteFile) Unavailable() bool { return w.r.Unavailable() }
func (w *tracedRemoteFile) Degraded() bool    { return w.r.Degraded() }
func (w *tracedRemoteFile) PushChunk() int    { return w.r.PushChunk() }

func (w *tracedRemoteFile) PushRead(p *remotedb.Proc, off, n int64, q *rmem.PushQuery) ([]byte, rmem.PushStats, error) {
	t0 := p.Now()
	b, st, err := w.r.PushRead(p, off, n, q)
	w.t.file(p, w.f.Name(), "push", t0)
	return b, st, err
}

// traceFiles are the engine files wrapped in the traced run.
var traceFiles = []string{"data", "log", "tempdb", "bpext"}

// traceKinds are the file span kinds.
var traceKinds = []string{"read", "write"}

// summarize folds the spans recorded during [from, to) into per-layer
// metrics: per file and kind, calls per client op and mean simulated µs
// per call; and the share of client-op time not covered by file spans
// the op's own proc issued (its self time).
func (t *tracer) summarize(m map[string]float64, ops int64, from, to time.Duration) {
	type agg struct {
		n   int64
		dur time.Duration
	}
	files := make(map[string]*agg)
	children := make(map[int64][][2]time.Duration)
	for _, s := range t.spans {
		if s.file == "" || s.start < from || s.start >= to {
			continue
		}
		a := files[s.name]
		if a == nil {
			a = &agg{}
			files[s.name] = a
		}
		a.n++
		a.dur += s.end - s.start
		if s.op != 0 {
			children[s.op] = append(children[s.op], [2]time.Duration{s.start, s.end})
		}
	}
	for _, f := range traceFiles {
		for _, kind := range traceKinds {
			key := "span.file." + f + "." + kind
			a := files[key]
			if a == nil {
				a = &agg{}
			}
			m[key+"_per_op"] = ratio(float64(a.n), float64(ops))
			m[key+"_us"] = ratio(float64(a.dur)/1e3, float64(a.n))
		}
	}
	var total, self time.Duration
	for _, s := range t.spans {
		if s.file != "" || s.start < from || s.start >= to {
			continue
		}
		d := s.end - s.start
		total += d
		self += d - covered(children[s.op], s.start, s.end)
	}
	m["span.op.self_frac"] = ratio(float64(self), float64(total))
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// write dumps every span as tab-separated text: op id, name, start ns,
// end ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\n", s.op, s.name, int64(s.start), int64(s.end))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
