package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
)

// Journal is the structured session log: one JSON record (slog) per
// session, written to w — migd's stderr — and, when dir is set, appended
// to journal-<nodeID>.jsonl there so post-mortems survive the process.
// Every record carries the node ID; the daemon adds session ID, trace
// ID, peer, transfer shape, fail class, bytes, and durations, so a
// failed session's journal line and its dump cross-reference by trace
// ID. ReadJournals reads the files back.
type Journal struct {
	logger *slog.Logger
	file   *os.File
	path   string
}

// NewJournal opens the journal. Either sink may be absent: w nil means
// file-only, dir empty means stderr-only; both absent yields a journal
// that discards (its Logger is still non-nil, so callers don't branch).
// Reopening a file that ends in a torn line drops that line first.
func NewJournal(w io.Writer, dir string, node obs.NodeInfo) (*Journal, error) {
	j := &Journal{}
	var sinks []io.Writer
	if w != nil {
		sinks = append(sinks, w)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: journal: %w", err)
		}
		j.path = filepath.Join(dir, "journal-"+node.ID+".jsonl")
		f, err := os.OpenFile(j.path, os.O_CREATE|os.O_APPEND|os.O_RDWR, 0o644)
		if err == nil {
			err = dropTornTail(f)
		}
		if err != nil {
			if f != nil {
				f.Close()
			}
			return nil, fmt.Errorf("fleet: journal: %w", err)
		}
		j.file = f
		sinks = append(sinks, f)
	}
	var out io.Writer = io.Discard
	if len(sinks) == 1 {
		out = sinks[0]
	} else if len(sinks) > 1 {
		out = io.MultiWriter(sinks...)
	}
	h := slog.NewJSONHandler(out, nil)
	j.logger = slog.New(h).With("node", node.ID)
	return j, nil
}

// dropTornTail cuts the file back to just after its last newline. A
// daemon killed mid-append leaves a fragment there; a restarted daemon
// with the same node ID would otherwise append its next record onto it,
// and the joined line would not decode.
func dropTornTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, fi.Size()-1); err != nil || last[0] == '\n' {
		return err
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		return err
	}
	return f.Truncate(int64(bytes.LastIndexByte(b, '\n') + 1))
}

// Logger returns the slog logger the daemon writes records through
// (nil on a nil journal, which the daemon treats as journaling off).
func (j *Journal) Logger() *slog.Logger {
	if j == nil {
		return nil
	}
	return j.logger
}

// Path returns the JSONL file path, or "" for a stderr-only journal.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Close closes the JSONL file, if any.
func (j *Journal) Close() error {
	if j == nil || j.file == nil {
		return nil
	}
	return j.file.Close()
}

// Record is one end-of-session journal line: msg "session.restored" or
// "session.failed". The daemon writes it with Log and migtop reads it
// back with ReadJournals, so its JSON tags and Log's keys are the one
// definition of the line's format.
type Record struct {
	Time      time.Time `json:"time"`
	Msg       string    `json:"msg"`
	Node      string    `json:"node"`
	Session   uint64    `json:"session"`
	Program   string    `json:"program"`
	Peer      string    `json:"peer"`
	How       string    `json:"how"`
	Bytes     int64     `json:"bytes"`
	ElapsedUS int64     `json:"elapsed_us"`
	RestoreUS int64     `json:"restore_us"`
	Trace     string    `json:"trace,omitempty"`
	FailClass string    `json:"fail_class,omitempty"`
	Error     string    `json:"error,omitempty"`
	Flight    string    `json:"flight,omitempty"`
	// PrecopyRounds is a live session's number of pre-copy rounds.
	PrecopyRounds int `json:"precopy_rounds,omitempty"`
}

// Log writes r as one journal line through l, at error level when it is
// a failure. Time and node come from l: slog stamps the one, and the
// Journal's logger carries the other.
func (r Record) Log(l *slog.Logger) {
	attrs := []slog.Attr{
		slog.Uint64("session", r.Session),
		slog.String("program", r.Program),
		slog.String("peer", r.Peer),
		slog.String("how", r.How),
		slog.Int64("bytes", r.Bytes),
		slog.Int64("elapsed_us", r.ElapsedUS),
		slog.Int64("restore_us", r.RestoreUS),
	}
	for _, a := range []slog.Attr{
		slog.String("trace", r.Trace),
		slog.String("fail_class", r.FailClass),
		slog.String("error", r.Error),
		slog.String("flight", r.Flight),
	} {
		if a.Value.String() != "" {
			attrs = append(attrs, a)
		}
	}
	if r.PrecopyRounds != 0 {
		attrs = append(attrs, slog.Int("precopy_rounds", r.PrecopyRounds))
	}
	level := slog.LevelInfo
	if r.Failed() {
		level = slog.LevelError
	}
	l.LogAttrs(context.Background(), level, r.Msg, attrs...)
}

// Failed reports whether the record is a failed session's.
func (r Record) Failed() bool { return r.Msg == "session.failed" }

// ReadJournals reads every journal-*.jsonl file in dirs and returns its
// session records in time order. A directory without one is an error:
// migd creates its file at start. The journal is appended without an
// fsync, so a daemon killed mid-append leaves a last line with no
// newline: that line is counted in torn and skipped. Any other line that
// does not decode is an error.
func ReadJournals(dirs []string) (recs []Record, torn int, err error) {
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
		if err == nil && len(files) == 0 {
			err = fmt.Errorf("fleet: no journal-*.jsonl in %s", dir)
		}
		if err != nil {
			return nil, 0, err
		}
		for _, path := range files {
			b, err := os.ReadFile(path)
			if err != nil {
				return nil, 0, fmt.Errorf("fleet: journal: %w", err)
			}
			lines := bytes.Split(b, []byte("\n"))
			if last := lines[len(lines)-1]; len(last) > 0 {
				torn++
			}
			for i, line := range lines[:len(lines)-1] {
				var r Record
				if err := json.Unmarshal(line, &r); err != nil {
					return nil, 0, fmt.Errorf("fleet: %s:%d: %w", path, i+1, err)
				}
				if r.Msg == "session.restored" || r.Failed() {
					recs = append(recs, r)
				}
			}
		}
	}
	slices.SortStableFunc(recs, func(a, b Record) int { return a.Time.Compare(b.Time) })
	return recs, torn, nil
}

// NodeSummary is one node's sessions: counts, bytes restored, and the
// quantiles of their wall times, read from the observations themselves.
type NodeSummary struct {
	Node     string `json:"node"`
	Restored int    `json:"restored"`
	Failed   int    `json:"failed"`
	Bytes    int64  `json:"bytes"`
	P50US    int64  `json:"p50_us"`
	P99US    int64  `json:"p99_us"`
}

// Summary is what migtop prints: one row per node, failures by class,
// and every failed session's record.
type Summary struct {
	Nodes       []NodeSummary  `json:"nodes"`
	FailClasses map[string]int `json:"fail_classes,omitempty"`
	Failures    []Record       `json:"failures,omitempty"`
	Torn        int            `json:"torn,omitempty"`
}

// Summarize folds records into a Summary, nodes in name order.
func Summarize(recs []Record, torn int) Summary {
	s := Summary{FailClasses: map[string]int{}, Torn: torn}
	elapsed := map[string][]int64{}
	rows := map[string]*NodeSummary{}
	for _, r := range recs {
		row := rows[r.Node]
		if row == nil {
			row = &NodeSummary{Node: r.Node}
			rows[r.Node] = row
		}
		elapsed[r.Node] = append(elapsed[r.Node], r.ElapsedUS)
		if r.Failed() {
			row.Failed++
			s.FailClasses[r.FailClass]++
			s.Failures = append(s.Failures, r)
			continue
		}
		row.Restored++
		row.Bytes += r.Bytes
	}
	for node, row := range rows {
		us := elapsed[node]
		slices.Sort(us)
		row.P50US, row.P99US = nearestRank(us, 0.50), nearestRank(us, 0.99)
		s.Nodes = append(s.Nodes, *row)
	}
	slices.SortFunc(s.Nodes, func(a, b NodeSummary) int { return strings.Compare(a.Node, b.Node) })
	return s
}

// nearestRank returns the q-quantile of the sorted, non-empty sample:
// the smallest observation with at least a q share of the sample at or
// below it.
func nearestRank(sorted []int64, q float64) int64 {
	return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
}

// ErrNoRecord is Explain's error when no journal record has the trace ID.
var ErrNoRecord = errors.New("fleet: no journal record has that trace ID")

// DumpSchema names the JSON schema of a failed session's dump.
const DumpSchema = "repro-flight/2"

// Dump is what a daemon writes for a failed session, as
// flight-<trace>.json: the session's exported span tree, whose spans carry
// its phases' durations and events, and the fields that correlate it with
// the session's journal record.
type Dump struct {
	Schema  string        `json:"schema"`
	TraceID string        `json:"trace_id"`
	Session uint64        `json:"session"`
	Outcome string        `json:"outcome"`
	Error   string        `json:"error"`
	Tree    *obs.SpanData `json:"tree"`
}

// Explain finds the session record with the trace ID in dirs' journals
// and reads the dump it names (nil when it names none).
func Explain(dirs []string, trace string) (Record, *Dump, error) {
	recs, _, err := ReadJournals(dirs)
	if err != nil {
		return Record{}, nil, err
	}
	i := slices.IndexFunc(recs, func(r Record) bool { return r.Trace == trace })
	if i < 0 {
		return Record{}, nil, ErrNoRecord
	}
	rec := recs[i]
	if rec.Flight == "" {
		return rec, nil, nil
	}
	b, err := os.ReadFile(rec.Flight)
	if err != nil {
		return rec, nil, fmt.Errorf("fleet: dump: %w", err)
	}
	var dump Dump
	if err := json.Unmarshal(b, &dump); err != nil {
		return rec, nil, fmt.Errorf("fleet: dump %s: %w", rec.Flight, err)
	}
	if dump.Schema != DumpSchema || dump.Tree == nil {
		return rec, nil, fmt.Errorf("fleet: dump %s: schema %q, want %q with a tree", rec.Flight, dump.Schema, DumpSchema)
	}
	return rec, &dump, nil
}
