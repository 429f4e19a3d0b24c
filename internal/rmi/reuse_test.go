package rmi

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// The tests below pin the ownership rule of the recycled per-call records
// (pendingReply on the client, request on the server): every call's outcome
// arrives exactly once, at its own sink, whatever the connection does in the
// meantime, and nothing a caller or servant can hold on to is ever reused.
// Run them under -race: a record touched after its release shows up there as
// a data race even where the outcome happens to look right.

// tagSink is one call's own completion record: it knows which reply is its
// own (the servant echoes the id) and counts how often it fired.
type tagSink struct {
	id    int64
	fired atomic.Int32
	err   error
	wrong atomic.Bool // fired with somebody else's reply
	all   *sync.WaitGroup
}

func (s *tagSink) Deliver(res []any, err error) {
	if s.fired.Add(1) != 1 {
		return // counted; the test reports it
	}
	s.err = err
	if err == nil && (len(res) != 1 || res[0] != any(s.id)) {
		s.wrong.Store(true)
	}
	s.all.Done()
}

// checkSinks fails the test for every sink that did not fire exactly once or
// fired with a stranger's reply, and returns how many completed with an error.
func checkSinks(t *testing.T, sinks []*tagSink) (failed int) {
	t.Helper()
	for _, s := range sinks {
		if n := s.fired.Load(); n != 1 {
			t.Errorf("call %d was delivered %d times, want exactly once", s.id, n)
		}
		if s.wrong.Load() {
			t.Errorf("call %d was delivered another call's reply", s.id)
		}
		if s.err != nil {
			failed++
		}
	}
	return failed
}

func waitAll(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	await(t, done, what)
}

// TestRecycledRecordsSurviveMidWindowKill kills the connection's write side
// while four goroutines keep windows of calls in flight over three streams.
// A failed send reaches its pending entry through fail's drain and comes back
// as post's error too; calls behind it find the connection dead before they
// are queued. Each of the 1,200 sinks must fire exactly once, with its own
// reply or an error, never with a reply meant for the record's previous user.
func TestRecycledRecordsSurviveMidWindowKill(t *testing.T) {
	tp := startTapped(t, echo)
	const posters, perPoster = 4, 300
	var all sync.WaitGroup
	sinks := make([]*tagSink, posters*perPoster)
	for i := range sinks {
		sinks[i] = &tagSink{id: int64(i) + 1000, all: &all} // ids past the runtime's small-integer boxes
	}
	all.Add(len(sinks))
	var posted atomic.Int64
	var posting sync.WaitGroup
	for g := 0; g < posters; g++ {
		posting.Add(1)
		go func(g int) {
			defer posting.Done()
			for i := 0; i < perPoster; i++ {
				if posted.Add(1) == posters*perPoster/3 {
					tp.failWrites.Store(true)
				}
				s := sinks[g*perPoster+i]
				tp.stub.OnStream(uint32(1+i%3)).InvokeSeq("M", 0, s, s.id)
			}
		}(g)
	}
	posting.Wait()
	waitAll(t, &all, "every sink to fire")
	if failed := checkSinks(t, sinks); failed == 0 {
		t.Error("no call failed: the kill never landed mid-window")
	}
}

// TestRecycledRecordsIgnoreLateReply lets a reply arrive for a call whose
// caller was already told the connection failed: the reader must find nothing
// to complete — the failed connection's FIFOs were drained — rather than pop
// a record that has since been recycled into another call.
func TestRecycledRecordsIgnoreLateReply(t *testing.T) {
	parked, release := make(chan struct{}, 1), make(chan struct{})
	tp := startTapped(t, func(method string, args []any) ([]any, error) {
		if method == "Park" {
			parked <- struct{}{}
			<-release
		}
		return args, nil
	})
	var all sync.WaitGroup
	sinks := make([]*tagSink, 65)
	for i := range sinks {
		sinks[i] = &tagSink{id: int64(i) + 1000, all: &all}
	}
	all.Add(len(sinks))
	tp.stub.OnStream(1).InvokeSeq("Park", 0, sinks[0], sinks[0].id)
	await(t, parked, "the call to park")
	// The next send fails; the parked call's caller sees the transport error.
	tp.failWrites.Store(true)
	for _, s := range sinks[1:] {
		tp.stub.OnStream(1).InvokeSeq("M", 0, s, s.id) // each takes and returns a pooled record
	}
	waitAll(t, &all, "every sink to fire")
	close(release) // the parked call's reply now reaches a reader with empty FIFOs
	if failed := checkSinks(t, sinks); failed != len(sinks) {
		t.Errorf("%d of %d calls failed, want all: the connection was dead", failed, len(sinks))
	}
	// The client is whole again after a Reconnect, records and all.
	tp.failWrites.Store(false)
	if _, err := tp.client.Reconnect(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if res, err := tp.stub.Invoke("M", 2000+i); err != nil || res[0] != any(2000+i) {
			t.Fatalf("call %d after the reconnect: %v %v", i, res, err)
		}
	}
}

// holdSink blocks the client's reader inside Deliver until the test lets go.
type holdSink struct {
	tagSink
	entered chan struct{}
	letGo   chan struct{}
}

func (s *holdSink) Deliver(res []any, err error) {
	s.entered <- struct{}{}
	<-s.letGo
	s.tagSink.Deliver(res, err)
}

// TestRecycledRecordsAcrossReconnect swaps the connection generation while
// the old generation's reader is still inside a completion: the calls queued
// behind it fail with the reconnect, the new generation's calls run on
// recycled records, and when the stale reader resumes it finds its socket
// closed and touches nothing.
func TestRecycledRecordsAcrossReconnect(t *testing.T) {
	tp := startTapped(t, echo)
	var all sync.WaitGroup
	held := &holdSink{entered: make(chan struct{}, 1), letGo: make(chan struct{})}
	held.id, held.all = 1000, &all
	queued := make([]*tagSink, 32)
	fresh := make([]*tagSink, 32)
	for i := range queued {
		queued[i] = &tagSink{id: int64(i) + 2000, all: &all}
		fresh[i] = &tagSink{id: int64(i) + 3000, all: &all}
	}
	all.Add(1 + len(queued) + len(fresh))
	tp.stub.InvokeSeq("M", 0, held, held.id)
	await(t, held.entered, "the reader to enter the held sink")
	for _, s := range queued {
		tp.stub.InvokeSeq("M", 0, s, s.id) // replies pile up behind the held reader
	}
	if _, err := tp.client.Reconnect(); err != nil {
		t.Fatal(err)
	}
	for _, s := range fresh {
		tp.stub.InvokeSeq("M", 0, s, s.id)
	}
	close(held.letGo)
	waitAll(t, &all, "every sink to fire")
	if failed := checkSinks(t, []*tagSink{&held.tagSink}); failed != 0 {
		t.Errorf("the held call failed: %v", held.err)
	}
	if failed := checkSinks(t, queued); failed != len(queued) {
		t.Errorf("%d of %d calls queued behind the reconnect failed, want all", failed, len(queued))
	}
	if failed := checkSinks(t, fresh); failed != 0 {
		t.Errorf("%d calls of the new generation failed", failed)
	}
}

// TestNothingUserVisibleIsRecycled keeps hold of what the transport handed
// out — the argument list a servant received, the results a caller received —
// across 10,000 further calls on the same connection: pooled records must
// never have lent their memory to either.
func TestNothingUserVisibleIsRecycled(t *testing.T) {
	kept := make(chan []any, 1)
	_, stub := startServant(t, func(method string, args []any) ([]any, error) {
		if method == "Keep" {
			kept <- args
		}
		return args, nil
	})
	first := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	keptRes, err := stub.OnStream(1).Invoke("Keep", slices.Clone(first), "tag")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		pack := []int32{int32(i), -1, -2, -3, -4, -5, -6, -7}
		res, err := stub.OnStream(uint32(1+i%3)).Invoke("M", pack, "other")
		if err != nil || !slices.Equal(res[0].([]int32), pack) {
			t.Fatalf("call %d: %v %v", i, res, err)
		}
	}
	for what, list := range map[string][]any{"the servant's argument list": <-kept, "the caller's results": keptRes} {
		if len(list) != 2 || !slices.Equal(list[0].([]int32), first) || list[1] != any("tag") {
			t.Errorf("%s changed under later calls: %v", what, list)
		}
	}
}

// TestReleasedRecordsAreZeroed pins what a stale holder of a recycled record
// finds: nothing — no sink to reach, no arguments to read — and a second
// completion panics instead of delivering to the record's next user.
func TestReleasedRecordsAreZeroed(t *testing.T) {
	var all sync.WaitGroup
	all.Add(1)
	sink := &tagSink{id: 1000, all: &all}
	p := acquirePending()
	p.sink, p.oneWay = sink, true
	p.complete(nil, errors.New("test: connection lost"))
	if sink.fired.Load() != 1 || sink.err == nil {
		t.Fatalf("completion did not reach the sink: fired %d, err %v", sink.fired.Load(), sink.err)
	}
	if p.sink != nil || p.oneWay || p.parked || p.err != nil || p.live.Load() {
		t.Errorf("released pending entry still holds state: %+v", p)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("completing a released pending entry did not panic")
			}
		}()
		p.complete(nil, nil)
	}()

	req := requestPool.Get().(*request)
	req.Object, req.Method, req.Args, req.Client, req.Seq = "o", "m", []any{1}, "c", 7
	releaseRequest(req)
	if req.Object != "" || req.Method != "" || req.Args != nil || req.Client != "" || req.Seq != 0 {
		t.Errorf("released request still holds state: %+v", req)
	}
}
