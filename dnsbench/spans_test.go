package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	all := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50) once: 40, not 30+30.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A disjoint child adds [60, 70).
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		// A child sticking out of its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "d", Start: 95, End: 120},
		// A grandchild reduces its own parent only.
		{ID: 6, Parent: 2, Name: "e", Start: 15, End: 25},
		// Nested inside another child: already covered by the union.
		{ID: 7, Parent: 1, Name: "f", Start: 30, End: 35},
		// An open span (never ended) is ignored as a child.
		{ID: 8, Parent: 1, Name: "open", Start: 80, End: -1},
	}
	self := selfTimes(all)
	want := map[int]int64{
		1: 100 - (40 + 10 + 5),
		2: 30 - 10,
		3: 30,
		4: 10,
		5: 25,
		6: 10,
		7: 5,
		8: 0,
	}
	for id, w := range want {
		if self[id-1] != w {
			t.Errorf("span %d (%s): self %d, want %d", id, all[id-1].Name, self[id-1], w)
		}
	}
}

func TestSpanSummaryAggregatesByName(t *testing.T) {
	s := newSpans()
	root := s.begin("job", 0, "job 0")
	a := s.begin("http.submit", root, "job 0")
	s.end(a)
	s.end(root)
	root = s.begin("job", 0, "job 1")
	s.end(root)
	rows := summarizeSpans(s.all)
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.Name] = r.Count
		if r.SelfSecond > r.TotalSecond {
			t.Errorf("%s: self %v exceeds total %v", r.Name, r.SelfSecond, r.TotalSecond)
		}
	}
	if counts["job"] != 2 || counts["http.submit"] != 1 {
		t.Errorf("counts %v, want job=2 http.submit=1", counts)
	}
	var none *spans // the untraced recorder does nothing
	if id := none.begin("x", 0, ""); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	none.end(1)
}
