package stream

import (
	"fmt"
	"sync"

	"repro/internal/link"
)

// sendQueue is how many cut chunks may wait for the transmit goroutine
// before the producer blocks: sender memory is bounded by
// sendQueue*ChunkSize, whatever the snapshot size.
const sendQueue = 16

// Writer cuts a byte stream into chunks and transmits them from a
// background goroutine, so the producer runs concurrently with
// transmission. Writer implements io.WriteCloser; it is not safe for
// concurrent Write calls. Close flushes the tail chunk and sends FIN; it
// reads nothing.
//
// Writer assumes a reliable transport: a send failure aborts the transfer.
type Writer struct {
	cfg   Config
	t     link.Transport
	buf   []byte
	seq   uint32
	bytes int64

	sendq chan chunk
	// sent is closed by txLoop once it has drained sendq.
	sent chan struct{}

	mu  sync.Mutex
	err error
}

// chunkBufs recycles chunk frames across transfers: Transport.Send does
// not retain its argument, so a chunk's frame is dead once Send returns
// and txLoop recycles it there.
var chunkBufs = sync.Pool{New: func() any { return []byte(nil) }}

func getChunkBuf(chunkSize int) []byte {
	return chunkFrame(chunkBufs.Get().([]byte), chunkSize)
}

// NewWriter starts a streamed transfer over t. The receiving side must be
// running a Reader on the peer.
func NewWriter(t link.Transport, cfg Config) *Writer {
	cfg = cfg.withDefaults()
	w := &Writer{
		cfg:   cfg,
		t:     t,
		buf:   getChunkBuf(cfg.ChunkSize),
		sendq: make(chan chunk, sendQueue),
		sent:  make(chan struct{}),
	}
	go w.txLoop()
	return w
}

// Fail ends the transfer with err: nothing more is transmitted, and Close
// sends no FIN.
func (w *Writer) Fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Err returns the first transfer error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// txLoop drains the chunk queue onto the transport. After a failed send
// it keeps draining — so the producer never blocks on a dead queue — but
// transmits nothing more: the receiver must not see a stream with a hole.
func (w *Writer) txLoop() {
	defer close(w.sent)
	for c := range w.sendq {
		if w.Err() == nil {
			if err := w.t.Send(c.seal()); err != nil {
				w.Fail(fmt.Errorf("stream: chunk %d send: %w", c.seq, err))
			}
		}
		chunkBufs.Put(c.frame[:0])
	}
}

// Write implements io.Writer: it buffers p, cutting and enqueueing
// full chunks. It blocks when the transmit queue is full. Write copies p
// into the chunk buffer before returning — it never retains p — so the
// producer (a capture encoding its next piece into the same buffer) may
// reuse p immediately.
func (w *Writer) Write(p []byte) (int, error) {
	if err := w.Err(); err != nil {
		return 0, err
	}
	n := len(p)
	for len(p) > 0 {
		room := min(dataHdr+w.cfg.ChunkSize-len(w.buf), len(p))
		w.buf = append(w.buf, p[:room]...)
		p = p[room:]
		if len(w.buf) == dataHdr+w.cfg.ChunkSize {
			if err := w.cut(); err != nil {
				return 0, err
			}
		}
	}
	return n, nil
}

// cut enqueues the buffered chunk for transmission.
func (w *Writer) cut() error {
	c := chunk{seq: w.seq, frame: w.buf}
	w.seq++
	w.bytes += int64(len(c.payload()))
	w.buf = getChunkBuf(w.cfg.ChunkSize)
	w.sendq <- c
	return w.Err()
}

// Close flushes the tail chunk, waits for the transmit goroutine and, if
// every chunk went out, sends FIN. It reports the first error of the whole
// transfer.
func (w *Writer) Close() error {
	if len(w.buf) > dataHdr && w.Err() == nil {
		w.cut() // on failure the error is reported below
	}
	close(w.sendq)
	<-w.sent
	if w.Err() == nil {
		if err := w.t.Send(marshalFin(w.seq, uint64(w.bytes))); err != nil {
			w.Fail(fmt.Errorf("stream: fin send: %w", err))
		}
	}
	mTxChunks.Add(int64(w.seq))
	return w.Err()
}
