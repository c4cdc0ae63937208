package query

import (
	"strings"
	"testing"
)

func TestParseOrderBy(t *testing.T) {
	cases := []struct {
		stmt  string
		attr  string
		desc  bool
		limit int
	}{
		{"SELECT a ORDER BY b", "b", false, 0},
		{"SELECT a ORDER BY b ASC", "b", false, 0},
		{"SELECT a order by b desc", "b", true, 0},
		{"SELECT a ORDER BY b DESC LIMIT 3", "b", true, 3},
		{"SELECT a ORDER BY b LIMIT 10", "b", false, 10},
		{"SELECT a WHERE c > 1 ORDER BY Has Meat DESC LIMIT 2", "Has Meat", true, 2},
		{"SELECT a, b WHERE a > 1 AND b < 2 ORDER BY a", "a", false, 0},
	}
	for _, tc := range cases {
		st, err := Parse(tc.stmt)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.stmt, err)
			continue
		}
		if st.Order == nil {
			t.Errorf("Parse(%q): no Order clause", tc.stmt)
			continue
		}
		if st.Order.Attr != tc.attr || st.Order.Desc != tc.desc || st.Limit != tc.limit {
			t.Errorf("Parse(%q) = {%q desc=%v limit=%d}, want {%q desc=%v limit=%d}",
				tc.stmt, st.Order.Attr, st.Order.Desc, st.Limit, tc.attr, tc.desc, tc.limit)
		}
	}
}

// TestParseOrderLimitErrorMessages pins the trailer diagnostics the same
// way TestParseErrorMessages does for the base grammar.
func TestParseOrderLimitErrorMessages(t *testing.T) {
	cases := []struct {
		stmt string
		want string
	}{
		{"SELECT a ORDER BY", "dangling ORDER BY"},      // missing attribute
		{"SELECT a ORDER BY DESC", "dangling ORDER BY"}, // direction but no attribute
		{"SELECT a ORDER", "expected BY after ORDER"},   // bare ORDER
		{"SELECT a ORDER b", "expected BY after ORDER"}, // ORDER without BY
		{"SELECT a LIMIT 3", "LIMIT without ORDER BY"},  // limit alone
		{"SELECT a WHERE b > 1 LIMIT 3", "LIMIT without ORDER BY"},
		{"SELECT a ORDER BY b LIMIT", "LIMIT missing count"}, // no count
		{"SELECT a ORDER BY b LIMIT x", `bad LIMIT "x"`},     // non-integer count
		{"SELECT a ORDER BY b LIMIT 2.5", `bad LIMIT "2.5"`}, // fractional count
		{"SELECT a ORDER BY b LIMIT -1", "must be positive"}, // negative count
		{"SELECT a ORDER BY b LIMIT 0", "must be positive"},  // zero count
		{"SELECT a ORDER BY b ASC UP", `unknown direction or trailing "UP"`},
		{"SELECT a ORDER BY b DESC DESC", "unknown direction or trailing"},
		{"SELECT a ORDER BY b LIMIT 3 extra", `unexpected "extra"`}, // junk after trailer
	}
	for _, tc := range cases {
		_, err := Parse(tc.stmt)
		if err == nil {
			t.Errorf("Parse(%q): expected error", tc.stmt)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %q, want it to mention %q", tc.stmt, err, tc.want)
		}
	}
}

// TestStatementStringRoundTripOrder checks that String() renders the new
// clauses canonically and Parse accepts its own output, including the
// implicit-ASC normalization.
func TestStatementStringRoundTripOrder(t *testing.T) {
	cases := []struct {
		in    string
		canon string
	}{
		{"SELECT a ORDER BY b", "SELECT a ORDER BY b ASC"},
		{"select a order by b desc limit 4", "SELECT a ORDER BY b DESC LIMIT 4"},
		{"SELECT a, b WHERE a > 1 ORDER BY Has Meat ASC LIMIT 2",
			"SELECT a, b WHERE a > 1 ORDER BY Has Meat ASC LIMIT 2"},
	}
	for _, tc := range cases {
		st, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got := st.String(); got != tc.canon {
			t.Errorf("String(%q) = %q, want %q", tc.in, got, tc.canon)
		}
		st2, err := Parse(st.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", st.String(), err)
		}
		if st2.String() != st.String() {
			t.Errorf("not canonical: %q vs %q", st2.String(), st.String())
		}
	}
}

// TestOrderByAttributeInTargets: the sort attribute must become a DisQ
// target even when it is neither selected nor filtered.
func TestOrderByAttributeInTargets(t *testing.T) {
	st, err := Parse("SELECT Calories ORDER BY Protein DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	attrs := st.Attributes()
	if len(attrs) != 2 || attrs[0] != "Calories" || attrs[1] != "Protein" {
		t.Fatalf("Attributes = %v, want [Calories Protein]", attrs)
	}
}

// TestApproxEqualSymmetric pins the repaired tolerance: relative to the
// larger magnitude (so the relation is symmetric), with an absolute floor
// of 1 near zero, and correct behaviour at negative and sub-unit scales —
// the asymmetric version disagreed on operand order.
func TestApproxEqualSymmetric(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{100, 103, true},   // 3 <= 5.15
		{100, 110, false},  // 10 > 5.5
		{0, 0.01, true},    // absolute floor near zero
		{0, 0.06, false},   // beyond the floor band
		{-100, -103, true}, // negative scale uses magnitude
		{-100, -110, false},
		{-100, 100, false}, // opposite signs, huge diff
		{0.5, 0.52, true},  // sub-unit: floor keeps a 0.05 band
		{0.5, 0.56, false},
		{1000, 1040, true}, // 40 <= 52
		{1040, 1000, true}, // ...and symmetric
	}
	for _, tc := range cases {
		if got := approxEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("approxEqual(%g, %g) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := approxEqual(tc.b, tc.a); got != tc.want {
			t.Errorf("approxEqual(%g, %g) = %v, want %v (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}

// TestOrderRows pins the eager post-pass: stable sort by Key with the
// requested direction, truncation to Limit, and no-op without Order.
func TestOrderRows(t *testing.T) {
	mk := func(keys ...float64) []ResultRow {
		rows := make([]ResultRow, len(keys))
		for i, k := range keys {
			rows[i] = ResultRow{Key: k, Values: map[string]float64{"i": float64(i)}}
		}
		return rows
	}
	st := &Statement{Order: &OrderBy{Attr: "x", Desc: true}, Limit: 2}
	rows := orderRows(st, mk(1, 5, 3, 5))
	if len(rows) != 2 || rows[0].Key != 5 || rows[1].Key != 5 {
		t.Fatalf("desc limit 2: %+v", rows)
	}
	// Stability: the first 5 (original index 1) must precede the second.
	if rows[0].Values["i"] != 1 || rows[1].Values["i"] != 3 {
		t.Fatalf("tie-break not stable: %+v", rows)
	}
	st = &Statement{Order: &OrderBy{Attr: "x"}}
	rows = orderRows(st, mk(2, 1, 3))
	if rows[0].Key != 1 || rows[1].Key != 2 || rows[2].Key != 3 {
		t.Fatalf("asc: %+v", rows)
	}
	plain := mk(9, 1)
	got := orderRows(&Statement{}, plain)
	if len(got) != 2 || got[0].Key != 9 {
		t.Fatalf("no Order must be identity: %+v", got)
	}
}
