package stream

import (
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/link"
)

// SessionStats extends WriterStats with the robustness counters.
type SessionStats struct {
	WriterStats
	// Retransmits counts chunks sent more than once (after a reconnect
	// resume or a corruption rewind).
	Retransmits int
	// Reconnects counts successful redials after a transport failure.
	Reconnects int
	// AckedSeq is the receiver's final acknowledgement watermark (the
	// next sequence number it needed when the session ended).
	AckedSeq uint32
}

// Session is the robust sender of a streamed transfer. Like Writer it cuts
// the produced bytes into chunks and transmits them concurrently with
// production, but it also:
//
//   - retains every transmitted chunk until the receiver's cumulative
//     acknowledgement watermark passes it (memory stays bounded by
//     Config.Window chunks — production blocks at the window edge);
//   - on a transport failure, redials with exponential backoff (up to
//     Config.MaxRetries attempts per failure), re-handshakes, and resumes
//     from the sequence number the receiver reports, not from byte zero;
//   - on a receiver NACK (corrupt chunk), rewinds and retransmits the
//     affected run over the live connection.
//
// Use NewSession with a dial function; the session owns (re)establishing
// the transport. Session implements io.WriteCloser; Write is not safe for
// concurrent use.
type Session struct {
	cfg  Config
	dial func() (link.Transport, error)
	id   uint64

	buf   []byte
	seq   uint32
	crc   uint32
	bytes int64

	chunks    chan chunk
	abort     chan struct{}
	abortOnce sync.Once
	finished  chan struct{}

	mu  sync.Mutex
	err error

	// final transport, valid after Close returns nil; the application can
	// exchange its own messages on it (migd's "restored" ack).
	t link.Transport

	stats SessionStats
}

// recvEvent is one message (or failure) surfaced by a connection's
// receive goroutine.
type recvEvent struct {
	msg message
	err error
}

// NewSession creates a sender session that obtains transports from dial.
// id identifies the transfer across reconnects. The first connection is
// established lazily by the first Write (or Close).
func NewSession(dial func() (link.Transport, error), id uint64, cfg Config) *Session {
	s := &Session{
		cfg:      cfg.withDefaults(),
		dial:     dial,
		id:       id,
		chunks:   make(chan chunk, 2),
		abort:    make(chan struct{}),
		finished: make(chan struct{}),
	}
	s.buf = chunkFrame(nil, s.cfg.ChunkSize)
	go s.pump()
	return s
}

func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.abortOnce.Do(func() { close(s.abort) })
}

// Err returns the first transfer error, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats returns the session statistics; call after Close.
func (s *Session) Stats() SessionStats { return s.stats }

// Transport returns the transport the session ended on. Valid only after
// Close returned nil; the caller may use it for application-level
// messages that follow the snapshot.
func (s *Session) Transport() link.Transport { return s.t }

// Write implements io.Writer, cutting full chunks into the session.
func (s *Session) Write(p []byte) (int, error) {
	if err := s.Err(); err != nil {
		return 0, err
	}
	n := len(p)
	for len(p) > 0 {
		room := min(dataHdr+s.cfg.ChunkSize-len(s.buf), len(p))
		s.buf = append(s.buf, p[:room]...)
		p = p[room:]
		if len(s.buf) == dataHdr+s.cfg.ChunkSize {
			if err := s.cut(); err != nil {
				return 0, err
			}
		}
	}
	return n, nil
}

func (s *Session) cut() error {
	c := chunk{seq: s.seq, frame: s.buf}
	s.seq++
	s.crc = crc32.Update(s.crc, crc32.IEEETable, c.payload())
	s.bytes += int64(len(c.payload()))
	s.stats.Chunks++
	s.buf = chunkFrame(nil, s.cfg.ChunkSize)
	start := time.Now()
	select {
	case s.chunks <- c:
	case <-s.abort:
		return s.Err()
	}
	s.stats.StallTime += time.Since(start)
	return s.Err()
}

// Close flushes the tail, sends FIN, and waits for the receiver's DONE
// (reconnecting as needed). It reports the first unrecoverable error.
func (s *Session) Close() error {
	if len(s.buf) > dataHdr && s.Err() == nil {
		s.cut()
	}
	close(s.chunks)
	start := time.Now()
	<-s.finished
	s.stats.CloseWait = time.Since(start)
	s.stats.Bytes = s.bytes
	s.stats.flush()
	return s.Err()
}

// recvLoop forwards one connection's messages to the pump. It exits after
// forwarding DONE or a receive failure, so a completed session leaves the
// transport quiet for the application.
func (s *Session) recvLoop(t link.Transport, events chan<- recvEvent, stop <-chan struct{}) {
	for {
		raw, err := t.Recv()
		var ev recvEvent
		if err != nil {
			ev = recvEvent{err: err}
		} else {
			m, perr := parseMessage(raw)
			if perr != nil {
				ev = recvEvent{err: perr}
			} else {
				ev = recvEvent{msg: m}
			}
		}
		select {
		case events <- ev:
		case <-stop:
			return
		}
		if ev.err != nil || ev.msg.typ == msgDone {
			return
		}
	}
}

// pump owns the transport and the protocol state machine.
func (s *Session) pump() {
	defer close(s.finished)

	var (
		t        link.Transport
		events   chan recvEvent
		stopRecv chan struct{}
		// retained holds transmitted chunks at and beyond the receiver's
		// acknowledgement watermark, in sequence order, each stamped with
		// its most recent transmission time for ack-RTT measurement.
		retained  []retainedChunk
		producing = true
		finSent   bool
	)

	dropRecv := func() {
		if stopRecv != nil {
			close(stopRecv)
			stopRecv = nil
		}
		if t != nil {
			t.Close()
			t = nil
		}
	}
	defer dropRecv()

	sendData := func(c chunk) error {
		return t.Send(c.seal())
	}
	// ackTo drops retained chunks below the watermark, observing each
	// chunk's send->ack round trip. Rewinds and resumes drop through
	// dropTo instead: a chunk discarded because the receiver already held
	// it carries no fresh timing signal.
	ackTo := func(next uint32) {
		now := time.Now()
		for len(retained) > 0 && retained[0].seq < next {
			mAckRTT.Observe(now.Sub(retained[0].sentAt))
			retained = retained[1:]
		}
	}
	dropTo := func(next uint32) {
		for len(retained) > 0 && retained[0].seq < next {
			retained = retained[1:]
		}
	}
	sendFin := func() error {
		finSent = true
		return t.Send(marshalFin(s.seq, uint64(s.bytes), s.crc))
	}

	// connect dials (with backoff), handshakes, and retransmits the
	// retained run from the receiver's resume point. firstAttempt skips
	// the backoff for the session's initial connection.
	connect := func() error {
		dropRecv()
		delay := s.cfg.RetryBase
		attempts := s.cfg.MaxRetries
		if attempts < 0 {
			attempts = 0 // reconnection disabled: a single fresh dial
		}
		var lastErr error
		for attempt := 0; attempt <= attempts; attempt++ {
			if attempt > 0 {
				time.Sleep(delay)
				delay *= 2
				if delay > s.cfg.RetryMax {
					delay = s.cfg.RetryMax
				}
			}
			nt, err := s.dial()
			if err != nil {
				lastErr = err
				continue
			}
			if err := nt.Send(marshalHello(s.id)); err != nil {
				nt.Close()
				lastErr = err
				continue
			}
			raw, err := nt.Recv()
			if err != nil {
				nt.Close()
				lastErr = err
				continue
			}
			m, err := parseMessage(raw)
			if err != nil || m.typ != msgResume {
				nt.Close()
				lastErr = fmt.Errorf("%w: expected RESUME handshake, got %v", ErrProtocol, err)
				continue
			}
			t = nt
			// Drop what the receiver already holds, replay the rest.
			next := m.seq
			dropTo(next)
			s.cfg.Recorder.Record("stream.resume", "session %d resumed at seq %d, replaying %d chunks", s.id, next, len(retained))
			if next > s.stats.AckedSeq {
				s.stats.AckedSeq = next
			}
			ok := true
			for i := range retained {
				s.stats.Retransmits++
				retained[i].sentAt = time.Now()
				if err := sendData(retained[i].chunk); err != nil {
					lastErr = err
					ok = false
					break
				}
			}
			if ok && finSent {
				if err := sendFin(); err != nil {
					lastErr = err
					ok = false
				}
			}
			if !ok {
				t.Close()
				t = nil
				continue
			}
			events = make(chan recvEvent, 16)
			stopRecv = make(chan struct{})
			go s.recvLoop(t, events, stopRecv)
			return nil
		}
		return fmt.Errorf("%w after %d attempts: %v", ErrRetriesExhausted, attempts+1, lastErr)
	}

	reconnect := func(cause error) bool {
		if s.cfg.MaxRetries < 0 {
			s.fail(fmt.Errorf("stream: transport failed and reconnection disabled: %w", cause))
			return false
		}
		s.cfg.Recorder.Record("stream.reconnect", "session %d transport failed: %v", s.id, cause)
		if err := connect(); err != nil {
			s.cfg.Recorder.Record("stream.fail", "session %d reconnect gave up: %v", s.id, err)
			s.fail(fmt.Errorf("stream: reconnect after %v: %w", cause, err))
			return false
		}
		s.stats.Reconnects++
		return true
	}

	fatal := func(err error) {
		s.fail(err)
		// Drain the producer so it never blocks on a dead pump.
		for range s.chunks {
		}
	}

	if err := connect(); err != nil {
		fatal(err)
		return
	}

	for {
		// Gate intake on the acknowledgement window: at most Window
		// unacknowledged chunks are retained, so production blocks (in
		// cut) when the receiver lags — bounded memory, end to end.
		var in chan chunk
		if producing && len(retained) < s.cfg.Window {
			in = s.chunks
		}
		select {
		case c, ok := <-in:
			if !ok {
				producing = false
				if err := sendFin(); err != nil {
					if !reconnect(err) {
						return
					}
				}
				continue
			}
			retained = append(retained, retainedChunk{chunk: c, sentAt: time.Now()})
			mWindow.Set(int64(len(retained)))
			if err := sendData(c); err != nil {
				if !reconnect(err) {
					return
				}
			}
		case ev := <-events:
			switch {
			case ev.err != nil:
				if !reconnect(ev.err) {
					return
				}
			case ev.msg.typ == msgAck:
				ackTo(ev.msg.seq)
				if ev.msg.seq > s.stats.AckedSeq {
					s.stats.AckedSeq = ev.msg.seq
				}
			case ev.msg.typ == msgNack:
				// Corruption rewind over the live connection.
				next := ev.msg.seq
				dropTo(next)
				s.cfg.Recorder.Record("stream.rewind", "session %d nack at seq %d, replaying %d chunks", s.id, next, len(retained))
				replayErr := error(nil)
				for i := range retained {
					s.stats.Retransmits++
					retained[i].sentAt = time.Now()
					if err := sendData(retained[i].chunk); err != nil {
						replayErr = err
						break
					}
				}
				if replayErr == nil && finSent {
					replayErr = sendFin()
				}
				if replayErr != nil {
					if !reconnect(replayErr) {
						return
					}
				}
			case ev.msg.typ == msgDone:
				if !finSent {
					fatal(fmt.Errorf("%w: DONE before FIN", ErrProtocol))
					return
				}
				if ev.msg.bytes != uint64(s.bytes) {
					fatal(fmt.Errorf("%w: receiver confirmed %d bytes, sent %d", ErrVerify, ev.msg.bytes, s.bytes))
					return
				}
				// DONE is the final cumulative acknowledgement.
				ackTo(s.seq)
				if s.seq > s.stats.AckedSeq {
					s.stats.AckedSeq = s.seq
				}
				// Leave the transport open (and quiet) for the caller.
				stopRecv = nil
				s.t = t
				t = nil
				return
			default:
				fatal(fmt.Errorf("%w: unexpected %d message from receiver", ErrProtocol, ev.msg.typ))
				return
			}
		}
	}
}
