package dataset

import (
	"reflect"
	"testing"
)

// TestSkewedShape pins the skewed corpus generator: deterministic
// under a seed, the hot/cold block layout, arrivals in hot blocks
// only, and both duplicates and two-alternative tuples present.
func TestSkewedShape(t *testing.T) {
	c := Skewed(800, 256, 7)
	if len(c.Residents) != 800 || len(c.Arrivals) != 256 {
		t.Fatalf("sizes: %d residents, %d arrivals", len(c.Residents), len(c.Arrivals))
	}
	if len(c.Schema) != 3 {
		t.Fatalf("schema %v", c.Schema)
	}
	block := func(i int) string { return c.Residents[i].Alts[0].Values[2].Alternatives()[0].Value.S() }
	hot, cold, dups, twoAlts := 0, 0, 0, 0
	for i, x := range c.Residents {
		if err := x.Validate(len(c.Schema)); err != nil {
			t.Fatal(err)
		}
		switch block(i)[0] {
		case 'h':
			hot++
		case 'c':
			cold++
		default:
			t.Fatalf("unexpected block %q", block(i))
		}
		if len(x.Alts) == 2 {
			twoAlts++
		}
		name := x.Alts[0].Values[0].Alternatives()[0].Value.S()
		if i > 0 && name == c.Residents[i-1].Alts[0].Values[0].Alternatives()[0].Value.S()+"x" && block(i) == block(i-1) {
			dups++
		}
	}
	if hot != 400 || cold != 400 {
		t.Fatalf("hot=%d cold=%d, want an even split", hot, cold)
	}
	if dups == 0 || twoAlts < 150 || twoAlts > 330 {
		t.Fatalf("%d duplicates, %d two-alternative tuples: want some of both (~30%% two-alternative)", dups, twoAlts)
	}
	for _, x := range c.Arrivals {
		if b := x.Alts[0].Values[2].Alternatives()[0].Value.S(); b[0] != 'h' {
			t.Fatalf("arrival in non-hot block %q", b)
		}
	}
	if !reflect.DeepEqual(c, Skewed(800, 256, 7)) {
		t.Fatal("corpus not deterministic under a fixed seed")
	}
}
