package stream

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/link"
)

// TestWriterDoesNotRetainCallerBytes pins the Write ownership contract the
// streamed capture depends on: Write copies p into the chunk buffer before
// returning, so a caller — a capture encoding its next piece into the
// buffer it just wrote — may overwrite p the moment Write returns. The caller scribbles over every slice immediately after
// writing it; the reassembled stream must still be the original bytes.
func TestWriterDoesNotRetainCallerBytes(t *testing.T) {
	cfg := Config{ChunkSize: 512}
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	res := runReader(NewReader(b, cfg))
	w := NewWriter(a, cfg)

	payload := testPayload(40_000, 11)
	scratch := make([]byte, 700) // reused for every Write, like a pooled body
	for off := 0; off < len(payload); {
		m := copy(scratch, payload[off:])
		if _, err := w.Write(scratch[:m]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m; i++ {
			scratch[i] = 0xDF // caller reuses its buffer immediately
		}
		off += m
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !bytes.Equal(r.data, payload) {
		t.Fatal("stream corrupted: Writer retained a caller slice past Write's return")
	}
}

// TestReaderHandsOutUnsharedChunks is the reader-side twin: Next returns
// the payload inside the frame the transport allocated for that message,
// without copying it. The consumer scribbles over every chunk the moment
// it has it; no later chunk may show the scribble (two results never
// alias), no earlier chunk may change under a later Next, and the stream
// must still close at FIN. Runs over the in-memory pipe and over real TCP
// framing, the two Recv implementations.
func TestReaderHandsOutUnsharedChunks(t *testing.T) {
	cfg := Config{ChunkSize: 512}
	transports := map[string]func(t *testing.T) (link.Transport, link.Transport){
		"pipe": func(*testing.T) (link.Transport, link.Transport) { return link.Pipe() },
		"tcp": func(t *testing.T) (link.Transport, link.Transport) {
			srv, cli, cleanup, err := link.LoopbackPair()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cleanup)
			return cli, srv
		},
	}
	for name, pair := range transports {
		t.Run(name, func(t *testing.T) {
			a, b := pair(t)
			defer a.Close()
			defer b.Close()
			payload := testPayload(10_000, 5)
			werr := make(chan error, 1)
			go func() {
				w := NewWriter(a, cfg)
				_, err := w.Write(payload)
				if cerr := w.Close(); err == nil {
					err = cerr
				}
				werr <- err
			}()

			r := NewReader(b, cfg)
			var held [][]byte
			off := 0
			for {
				p, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(p, payload[off:off+len(p)]) {
					t.Fatalf("chunk at %d arrived altered: an earlier result aliases it", off)
				}
				off += len(p)
				for i := range p {
					p[i] = 0xDF
				}
				held = append(held, p)
				for i, h := range held {
					if bytes.Count(h, []byte{0xDF}) != len(h) {
						t.Fatalf("chunk %d changed under a later Next", i)
					}
				}
			}
			if off != len(payload) {
				t.Fatalf("got %d of %d bytes", off, len(payload))
			}
			if err := <-werr; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWriterChunkPoolConcurrentTransfers runs several writer/reader pairs
// at once so recycled chunk buffers migrate between transfers through the
// package pool. Each stream must arrive intact — a buffer recycled before
// its transport Send completed would corrupt a neighbor. CI runs this
// package under -race, which additionally catches any unsynchronized
// reuse of a pooled buffer.
func TestWriterChunkPoolConcurrentTransfers(t *testing.T) {
	cfg := Config{ChunkSize: 256}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			a, b := link.Pipe()
			defer a.Close()
			defer b.Close()
			res := runReader(NewReader(b, cfg))
			w := NewWriter(a, cfg)
			payload := testPayload(30_000+seed*100, int64(seed))
			if _, err := w.Write(payload); err != nil {
				errs <- err
				return
			}
			if err := w.Close(); err != nil {
				errs <- err
				return
			}
			r := <-res
			if r.err != nil {
				errs <- r.err
				return
			}
			if !bytes.Equal(r.data, payload) {
				errs <- fmt.Errorf("transfer %d: stream corrupted by pooled chunk reuse", seed)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
