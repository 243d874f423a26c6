package transport

import (
	"fmt"
	"sync"
	"testing"
)

// size returns how many strings the table holds.
func (t *internTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(*t.snap.Load()) + len(t.fresh)
}

// internKeys returns n distinct record-key-shaped strings as bytes.
func internKeys(n int) [][]byte {
	ps := make([][]byte, n)
	for i := range ps {
		ps[i] = []byte(fmt.Sprintf("k/%06d", i))
	}
	return ps
}

// TestInternTableConcurrent: decoders on several goroutines offering
// twice internCap distinct strings, each in its own order, always get
// back the string they offered, and the table ends full and never holds
// more than internCap.
func TestInternTableConcurrent(t *testing.T) {
	tab := newInternTable()
	ps := internKeys(2 * internCap)
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ps {
				p := ps[(i+w*len(ps)/workers)%len(ps)]
				if s := tab.intern(p); s != string(p) {
					errs <- fmt.Sprintf("intern(%q) = %q", p, s)
					return
				}
				if i%1024 == 0 && tab.size() > internCap {
					errs <- fmt.Sprintf("table holds %d strings, cap %d", tab.size(), internCap)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := tab.size(); n != internCap {
		t.Errorf("table holds %d strings after %d distinct offers, want exactly internCap %d", n, len(ps), internCap)
	}
	for _, p := range ps {
		if s := tab.intern(p); s != string(p) {
			t.Fatalf("full table: intern(%q) = %q", p, s)
		}
	}
}

// TestInternAdmittedStringDecodesWithoutAllocating: a string admitted
// before the cap costs no allocation on every later decode, whether it
// still waits for the next snapshot or is in one; once the table is
// full nothing waits outside the snapshot, and later strings are still
// returned right.
func TestInternAdmittedStringDecodesWithoutAllocating(t *testing.T) {
	tab := newInternTable()
	ps := internKeys(internCap + 10)
	zeroAllocs := func(p []byte, when string) {
		t.Helper()
		if n := testing.AllocsPerRun(100, func() { tab.intern(p) }); n != 0 {
			t.Errorf("%s: intern(%q) allocates %.1f objects/op, want 0", when, p, n)
		}
	}
	i := 0
	for ; i < 100 && (i < 10 || len(tab.fresh) == 0); i++ {
		tab.intern(ps[i])
	}
	if len(tab.fresh) == 0 {
		t.Fatal("no admission ever waited outside the snapshot")
	}
	for k := range tab.fresh {
		zeroAllocs([]byte(k), "waiting for a snapshot")
	}
	zeroAllocs(ps[0], "in the snapshot")
	for _, p := range ps[i:internCap] {
		tab.intern(p)
	}
	if n, waiting := tab.size(), len(tab.fresh); n != internCap || waiting != 0 {
		t.Fatalf("full table holds %d strings, %d outside the snapshot; want %d and 0", n, waiting, internCap)
	}
	zeroAllocs(ps[0], "first admitted, table full")
	zeroAllocs(ps[internCap-1], "last admitted, table full")
	for _, p := range ps[internCap:] {
		if s := tab.intern(p); s != string(p) {
			t.Errorf("past the cap: intern(%q) = %q", p, s)
		}
	}
	if n := tab.size(); n != internCap {
		t.Errorf("table holds %d strings past the cap, want %d", n, internCap)
	}
}

// TestRegisterWireAfterFirstDecodePanics: no lock guards the decoder
// table, so registering a tag once the table has been read panics
// rather than racing the readers. Every registration is an init.
func TestRegisterWireAfterFirstDecodePanics(t *testing.T) {
	b, err := AppendEnvelope(nil, Envelope{From: "a", To: "b", Msg: helloMsg{ID: "n1", Addr: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(NewWireReader(b)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterWire after a decode did not panic")
		}
	}()
	RegisterWire(11, func(r *WireReader) (Message, error) { return helloMsg{}, r.Err() })
}
