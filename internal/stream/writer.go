package stream

import (
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/link"
)

// WriterStats summarizes one streamed transfer from the sending side.
type WriterStats struct {
	Chunks int
	Bytes  int64
}

// Writer cuts a byte stream into chunks and transmits them from a
// background goroutine, so the producer (the MSRM collector) runs
// concurrently with transmission. Writer implements io.WriteCloser; it is
// not safe for concurrent Write calls. Close flushes the tail chunk, sends
// FIN, and blocks until the receiver confirms the whole stream.
//
// Writer assumes a reliable transport: a send or receive failure aborts
// the transfer.
type Writer struct {
	cfg   Config
	t     link.Transport
	buf   []byte
	seq   uint32
	crc   uint32
	bytes int64

	sendq chan chunk
	// abort is closed by the background goroutines on failure so a
	// blocked producer unblocks promptly.
	abort     chan struct{}
	done      chan struct{} // closed when DONE (or an error) arrives
	abortOnce sync.Once

	mu  sync.Mutex
	err error

	// inflight maps a transmitted chunk's sequence number to its send
	// time; the ack watermark in recvLoop drains it into the ack-RTT
	// histogram. Guarded by rttMu (txLoop and recvLoop race on it).
	rttMu    sync.Mutex
	inflight map[uint32]time.Time

	stats WriterStats
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
		cfg:      cfg,
		t:        t,
		buf:      getChunkBuf(cfg.ChunkSize),
		sendq:    make(chan chunk, cfg.Window),
		abort:    make(chan struct{}),
		done:     make(chan struct{}),
		inflight: make(map[uint32]time.Time),
	}
	go w.txLoop()
	go w.recvLoop()
	return w
}

func (w *Writer) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	w.abortOnce.Do(func() { close(w.abort) })
}

// Err returns the first transfer error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Stats returns the transfer statistics; call after Close.
func (w *Writer) Stats() WriterStats { return w.stats }

// noteSent stamps a chunk's transmission time for RTT accounting.
func (w *Writer) noteSent(seq uint32) {
	w.rttMu.Lock()
	w.inflight[seq] = time.Now()
	w.rttMu.Unlock()
}

// noteAcked observes the round trip of every in-flight chunk below the
// cumulative acknowledgement watermark (next), or of all of them when the
// receiver confirmed the whole stream (all true).
func (w *Writer) noteAcked(next uint32, all bool) {
	now := time.Now()
	w.rttMu.Lock()
	for seq, at := range w.inflight {
		if all || seq < next {
			mAckRTT.Observe(now.Sub(at))
			delete(w.inflight, seq)
		}
	}
	w.rttMu.Unlock()
}

// txLoop drains the chunk queue onto the transport and finishes with FIN.
func (w *Writer) txLoop() {
	for c := range w.sendq {
		w.noteSent(c.seq)
		err := w.t.Send(c.seal())
		chunkBufs.Put(c.frame[:0])
		if err != nil {
			w.fail(fmt.Errorf("stream: chunk %d send: %w", c.seq, err))
			// Keep draining so the producer never blocks on a dead queue.
			continue
		}
	}
	if w.Err() != nil {
		return
	}
	if err := w.t.Send(marshalFin(w.seq, uint64(w.bytes), w.crc)); err != nil {
		w.fail(fmt.Errorf("stream: fin send: %w", err))
	}
}

// recvLoop consumes receiver messages: acknowledgement watermarks and the
// final DONE.
func (w *Writer) recvLoop() {
	defer close(w.done)
	for {
		raw, err := w.t.Recv()
		if err != nil {
			w.fail(fmt.Errorf("stream: recv: %w", err))
			return
		}
		m, err := parseMessage(raw)
		if err != nil {
			w.fail(err)
			return
		}
		switch m.typ {
		case msgAck:
			// Memory is bounded by the send queue alone; the watermark
			// only times the chunks it passes.
			w.noteAcked(m.seq, false)
		case msgDone:
			// The receiver only sends DONE after verifying the FIN
			// totals, so its byte count is authoritative; re-checking
			// against w.bytes here would race with the producer.
			w.noteAcked(0, true)
			return
		default:
			w.fail(fmt.Errorf("%w: unexpected %d message from receiver", ErrProtocol, m.typ))
			return
		}
	}
}

// Write implements io.Writer: it buffers p, cutting and enqueueing
// full chunks. It blocks when the transmit window is full. Write copies p
// into the chunk buffer before returning — it never retains p — so
// callers (the XDR encoder's flush sink, whose buffers return to a pool)
// may reuse p immediately.
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
	w.crc = crc32.Update(w.crc, crc32.IEEETable, c.payload())
	w.bytes += int64(len(c.payload()))
	w.stats.Chunks++
	w.buf = getChunkBuf(w.cfg.ChunkSize)
	select {
	case w.sendq <- c:
	case <-w.abort:
		return w.Err()
	}
	mWindow.Set(int64(len(w.sendq)))
	return w.Err()
}

// Close flushes the tail chunk, transmits FIN, and waits for the
// receiver's DONE. It reports the first error of the whole transfer.
func (w *Writer) Close() error {
	if len(w.buf) > dataHdr && w.Err() == nil {
		w.cut() // on failure the error is reported below
	}
	close(w.sendq)
	<-w.done
	w.stats.Bytes = w.bytes
	w.stats.flush()
	return w.Err()
}
