package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark's own spans: one around each call it makes into a layer
// of the program, kept in memory and written out when the run ends. Only
// the traced run records them; an untraced run uses a nil *spans, whose
// methods do nothing, so the end-to-end numbers carry no span cost.

// span is one recorded call. Times are nanoseconds since the recorder's
// epoch; Parent is the enclosing span's ID (0 for a root) and Key ties
// spans of one step or job together ("step 12", "job 3").
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spans struct {
	mu    sync.Mutex
	epoch time.Time
	all   []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (s *spans) begin(name string, parent int, key string) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.all = append(s.all, span{ID: len(s.all) + 1, Parent: parent, Name: name, Key: key, Start: now, End: -1})
	return len(s.all)
}

// end closes the span begin returned.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	s.all[id-1].End = now
	s.mu.Unlock()
}

// add records a span whose interval the caller timed itself.
func (s *spans) add(name string, parent int, key string, t0, t1 time.Time) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.all = append(s.all, span{ID: len(s.all) + 1, Parent: parent, Name: name, Key: key,
		Start: t0.Sub(s.epoch).Nanoseconds(), End: t1.Sub(s.epoch).Nanoseconds()})
	return len(s.all)
}

// selfTimes returns each closed span's duration minus the part of its
// interval covered by the union of its children (clipped to the parent),
// indexed by span ID - 1. Overlapping children (ranks or clients running
// at once under one parent) are counted once.
func selfTimes(all []span) []int64 {
	children := map[int][]span{}
	for _, sp := range all {
		if sp.Parent != 0 && sp.End >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make([]int64, len(all))
	for i, sp := range all {
		if sp.End < 0 {
			continue
		}
		self[i] = sp.End - sp.Start - covered(sp.Start, sp.End, children[sp.ID])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi int64, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanRow aggregates the spans of one name.
type spanRow struct {
	Name        string  `json:"name"`
	Count       int     `json:"count"`
	TotalSecond float64 `json:"total_s"`
	SelfSecond  float64 `json:"self_s"`
}

func summarizeSpans(all []span) []spanRow {
	self := selfTimes(all)
	byName := map[string]*spanRow{}
	var order []string
	for i, sp := range all {
		if sp.End < 0 {
			continue
		}
		row, ok := byName[sp.Name]
		if !ok {
			row = &spanRow{Name: sp.Name}
			byName[sp.Name] = row
			order = append(order, sp.Name)
		}
		row.Count++
		row.TotalSecond += float64(sp.End-sp.Start) / 1e9
		row.SelfSecond += float64(self[i]) / 1e9
	}
	rows := make([]spanRow, 0, len(order))
	for _, name := range order {
		rows = append(rows, *byName[name])
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SelfSecond > rows[j].SelfSecond })
	return rows
}

// write prints the self-time table and stores every span plus the table
// as JSON at path, stamped with the workload and seed that produced them.
func (s *spans) write(path, workload string, seed int64) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	all := append([]span(nil), s.all...)
	s.mu.Unlock()
	rows := summarizeSpans(all)
	fmt.Printf("benchmark spans (self time = duration minus the union of child spans):\n")
	fmt.Printf("  %-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range rows {
		fmt.Printf("  %-28s %8d %12.6f %12.6f\n", r.Name, r.Count, r.TotalSecond, r.SelfSecond)
	}
	data, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "spans": all, "self": rows,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}
