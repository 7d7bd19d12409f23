package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Target is one node the scraper polls, addressed by the base URL of its
// telemetry endpoints (migd's pprof/metrics listener).
type Target struct {
	Name string // display name; defaults to the URL with its scheme stripped
	URL  string // base URL, e.g. "http://127.0.0.1:9102"
}

// NormalizeTarget builds a Target from an operator-supplied address:
// "host:port" gains the http scheme, a full URL is kept as-is.
func NormalizeTarget(addr string) Target {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimRight(url, "/")
	return Target{Name: strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://"), URL: url}
}

// Sample is one scrape of one node: the decoded /metrics report plus the
// /readyz probe. Err marks an unreachable or unparsable node — the
// roll-up still renders it as a row so an outage is visible, not absent.
type Sample struct {
	Target  Target
	At      time.Time
	Node    *obs.NodeInfo // nil for failed scrapes and reports without a node header
	Metrics obs.MetricsSnapshot
	Ready   bool
	Err     error
}

// Scraper polls every target's /metrics (the JSON report ParseReport
// reads) and /readyz, keeping the previous round per target so two
// consecutive scrapes yield windowed rates. Safe for
// concurrent use; the fetches within one round run concurrently.
type Scraper struct {
	Targets []Target
	// Client is the HTTP client; nil selects a 5-second-timeout client.
	Client *http.Client

	mu   sync.Mutex
	prev map[string]Sample
	last map[string]Sample
}

func (s *Scraper) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return &http.Client{Timeout: 5 * time.Second}
}

// Scrape polls every target once and rotates the window. The returned
// samples are in target order; unreachable nodes carry Err.
func (s *Scraper) Scrape(ctx context.Context) []Sample {
	samples := make([]Sample, len(s.Targets))
	var wg sync.WaitGroup
	for i, tgt := range s.Targets {
		wg.Add(1)
		go func(i int, tgt Target) {
			defer wg.Done()
			samples[i] = s.scrapeOne(ctx, tgt)
		}(i, tgt)
	}
	wg.Wait()

	s.mu.Lock()
	s.prev = s.last
	s.last = make(map[string]Sample, len(samples))
	for _, sm := range samples {
		s.last[sm.Target.Name] = sm
	}
	s.mu.Unlock()
	return samples
}

func (s *Scraper) scrapeOne(ctx context.Context, tgt Target) Sample {
	sm := Sample{Target: tgt, At: time.Now()}
	body, err := s.get(ctx, tgt.URL+"/metrics")
	if err != nil {
		sm.Err = err
		return sm
	}
	rep, err := obs.ParseReport(body)
	if err != nil {
		sm.Err = err
		return sm
	}
	sm.Node = rep.Node
	if rep.Metrics != nil {
		sm.Metrics = *rep.Metrics
	}
	sm.Ready = s.probeReady(ctx, tgt.URL)
	return sm
}

// probeReady hits /readyz; only an explicit 503 marks the node draining.
// A server without the endpoint answered /metrics above, so it is
// treated as ready — readiness is best-effort, liveness is not.
func (s *Scraper) probeReady(ctx context.Context, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return true
	}
	resp, err := s.client().Do(req)
	if err != nil {
		return true
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode != http.StatusServiceUnavailable
}

func (s *Scraper) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// Window returns the target's two most recent successful-round samples.
// ok is false until two rounds have completed.
func (s *Scraper) Window(name string) (prev, last Sample, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	last, okLast := s.last[name]
	prev, okPrev := s.prev[name]
	return prev, last, okLast && okPrev
}
