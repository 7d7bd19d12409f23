package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Journal is the session log: one JSON line per session, written to w
// — migd's stderr — and, when dir is set, appended to
// journal-<nodeID>.jsonl there so post-mortems survive the process. Each
// line is a Record, stamped with the time and the node ID; ReadJournals
// reads the files back.
type Journal struct {
	mu   sync.Mutex
	w    io.Writer
	file *os.File
	path string
	node string
}

// NewJournal opens the journal. Either sink may be absent: w nil means
// file-only, dir empty means stderr-only; both absent yields a journal
// that discards. Reopening a file that ends in a torn line drops that
// line first.
func NewJournal(w io.Writer, dir string, node obs.NodeInfo) (*Journal, error) {
	j := &Journal{w: io.Discard, node: node.ID}
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
	if len(sinks) > 0 {
		j.w = io.MultiWriter(sinks...)
	}
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
// "session.failed". Journal.Write encodes it and ReadJournals decodes it,
// so its JSON tags are the one definition of the line's format.
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
	// PrecopyRounds is a live session's number of pre-copy rounds.
	PrecopyRounds int `json:"precopy_rounds,omitempty"`
	// Tree is a failed session's exported span tree: its phases with
	// their durations, and its events. A restored session's record has
	// none.
	Tree *obs.SpanData `json:"tree,omitempty"`
}

// Write appends r to the journal as one line, stamped with the time and
// the journal's node. Safe for concurrent use; a nil journal writes
// nothing.
func (j *Journal) Write(r Record) error {
	if j == nil {
		return nil
	}
	r.Time, r.Node = time.Now(), j.node
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err = j.w.Write(append(b, '\n'))
	return err
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

// Explain finds the session record with the trace ID in dirs' journals.
// A failed session's record carries its span tree.
func Explain(dirs []string, trace string) (Record, error) {
	recs, _, err := ReadJournals(dirs)
	if err != nil {
		return Record{}, err
	}
	i := slices.IndexFunc(recs, func(r Record) bool { return r.Trace == trace })
	if i < 0 {
		return Record{}, ErrNoRecord
	}
	return recs[i], nil
}
