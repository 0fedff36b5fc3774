package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// Span kinds. Each names the layer boundary the benchmark times from its
// own code: the client side of an invocation, the benchmark-owned method
// body on the member, and the core.State calls that body makes.
const (
	spanInvoke  uint8 = iota // core.Stub.InvokeAsync issue → reply
	spanHandler              // method body on the member (server side)
	spanPut                  // core.State.PutBytes
	spanGet                  // core.State.GetBytes
	spanAdd                  // core.State.AddInt
	nSpanKinds
)

var spanNames = [nSpanKinds]string{"core.invoke", "app.handler", "kvstore.put", "kvstore.get", "kvstore.add"}

// span is one timed interval. A handler span's parent is the request id
// the client span carries in the benchmark's argument bytes; a store span's
// parent is its handler span.
type span struct {
	id, parent uint64
	kind       uint8
	start, end int64
}

// handlerID derives the handler span's id from its request id, keeping
// both in one id space without a second counter on the wire.
func handlerID(reqID uint64) uint64 { return reqID | 1<<63 }

const traceShards = 64

// tracer keeps spans in memory, sharded by id to keep appends from
// contending, until the run ends. Recording is off unless on is set.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64 // ids for store spans (request ids come from callers)
	shards [traceShards]struct {
		mu    sync.Mutex
		spans []span
		_     [32]byte // keep shard locks on separate cache lines
	}
}

func (t *tracer) add(s span) {
	sh := &t.shards[s.id%traceShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// child records a store span of kind under parent, from start until now.
func (t *tracer) child(parent uint64, kind uint8, start int64) {
	id := t.nextID.Add(1) | 1<<62
	t.add(span{id: id, parent: parent, kind: kind, start: start, end: now()})
}

func (t *tracer) all() []span {
	var out []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	return out
}

// spanStats summarizes recorded spans per kind: durations and self times
// (a span minus the part of its interval its children cover).
type spanStats struct {
	dur  [nSpanKinds][]int64
	self [nSpanKinds][]int64
}

func summarize(spans []span) *spanStats {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	st := &spanStats{}
	for _, s := range spans {
		d := s.end - s.start
		st.dur[s.kind] = append(st.dur[s.kind], d)
		st.self[s.kind] = append(st.self[s.kind], d-covered(s, children[s.id]))
	}
	return st
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.start, s.start), min(k.end, s.end)
		if hi <= lo {
			continue
		}
		if lo > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = lo, hi
		} else if hi > curE {
			curE = hi
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeSpans dumps spans as tab-separated id, parent, name, start_ns,
// end_ns for offline inspection.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, spanNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
