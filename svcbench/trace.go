package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory; they are written out
// once, when the run ends. A nil recorder (untraced runs) records nothing.
type recorder struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	seq   uint64
	spans []*span
}

// span is one timed interval: a request the benchmark sent, a direct call
// into a layer, a pass, or a server span scraped from /tracez. Every span
// of one run carries the run's ID.
type span struct {
	ID     string         `json:"id"`
	Parent string         `json:"parent,omitempty"`
	Run    string         `json:"run"`
	Name   string         `json:"name"`
	Start  int64          `json:"startNs"` // since the run started
	End    int64          `json:"endNs"`
	Self   int64          `json:"selfNs"` // End−Start minus the time children cover
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func newRecorder() *recorder {
	return &recorder{run: fmt.Sprintf("%016x", rand.Uint64()), t0: time.Now()}
}

// begin opens a span; end closes and keeps it. IDs are 16 hex digits, the
// grammar of the service's trace header.
func (r *recorder) begin(name, parent string) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.seq++
	id := fmt.Sprintf("%08s%08x", r.run[:8], r.seq)
	r.mu.Unlock()
	return &span{ID: id, Parent: parent, Run: r.run, Name: name, Start: int64(time.Since(r.t0))}
}

func (r *recorder) end(s *span) {
	if r == nil || s == nil {
		return
	}
	s.End = int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// add keeps a span whose interval is already known (server spans).
func (r *recorder) add(s *span) {
	if r == nil {
		return
	}
	s.Run = r.run
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// since converts a wall-clock instant to the run's span clock.
func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (s *span) id() string {
	if s == nil {
		return ""
	}
	return s.ID
}

func (s *span) set(key string, v any) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]any)
	}
	s.Attrs[key] = v
}

// selfTimes fills every span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []*span) {
	children := make(map[string][]*span)
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write stores the spans, a per-name self-time summary and the run's
// environment as one JSON file under dir and returns its path.
func (r *recorder) write(dir, workload string, seed uint64, environment map[string]any) (string, error) {
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	selfTimes(spans)
	type total struct {
		Count  int     `json:"count"`
		TotalS float64 `json:"totalS"`
		SelfS  float64 `json:"selfS"`
	}
	byName := make(map[string]*total)
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &total{}
			byName[s.Name] = t
		}
		t.Count++
		t.TotalS += float64(s.End-s.Start) / 1e9
		t.SelfS += float64(s.Self) / 1e9
	}
	doc := map[string]any{
		"run": r.run, "workload": workload, "seed": seed, "env": environment,
		"byName": byName, "spans": spans,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", workload, seed, r.run))
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
