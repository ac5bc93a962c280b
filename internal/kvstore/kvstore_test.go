package kvstore

import (
	"fmt"
	"testing"
	"testing/quick"

	"pbs/internal/rng"
)

func TestApplyNewerWins(t *testing.T) {
	s := New()
	if !s.Apply(Version{Key: "a", Seq: 1, Value: "v1"}, 10) {
		t.Fatal("first apply should succeed")
	}
	if !s.Apply(Version{Key: "a", Seq: 3, Value: "v3"}, 11) {
		t.Fatal("newer apply should succeed")
	}
	if s.Apply(Version{Key: "a", Seq: 2, Value: "v2"}, 12) {
		t.Fatal("older apply should be ignored")
	}
	if s.Apply(Version{Key: "a", Seq: 3, Value: "dup"}, 13) {
		t.Fatal("duplicate apply should be ignored")
	}
	v, ok := s.Get("a")
	if !ok || v.Seq != 3 || v.Value != "v3" || v.WrittenAt != 11 {
		t.Fatalf("got %+v", v)
	}
	applied, ignored := s.Stats()
	if applied != 2 || ignored != 2 {
		t.Fatalf("stats = %d/%d", applied, ignored)
	}
}

func TestGetMissing(t *testing.T) {
	s := New()
	v, ok := s.Get("nope")
	if ok || v.Seq != 0 || v.Key != "nope" {
		t.Fatalf("missing get = %+v ok=%v", v, ok)
	}
	if s.Seq("nope") != 0 {
		t.Fatal("missing seq should be 0")
	}
}

func TestSummaryAndVersions(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Apply(Version{Key: fmt.Sprintf("k%d", i), Seq: uint64(i + 1)}, float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d", s.Len())
	}
	sum := s.Summary()
	if len(sum) != 10 || sum["k3"] != 4 {
		t.Fatalf("summary = %v", sum)
	}
	vs := s.Versions()
	if len(vs) != 10 {
		t.Fatalf("versions = %d", len(vs))
	}
}

func TestConvergenceProperty(t *testing.T) {
	// Applying any permutation of the same version set yields identical
	// final state — the idempotent/commutative rule anti-entropy needs.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(20)
		versions := make([]Version, n)
		for i := range versions {
			versions[i] = Version{
				Key: fmt.Sprintf("k%d", r.Intn(5)),
				Seq: uint64(r.Intn(10)),
			}
		}
		s1, s2 := New(), New()
		for _, v := range versions {
			s1.Apply(v, 0)
		}
		perm := r.Perm(n)
		for _, i := range perm {
			s2.Apply(versions[i], 0)
		}
		a, b := s1.Summary(), s2.Summary()
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewerComparison(t *testing.T) {
	a := Version{Seq: 2}
	b := Version{Seq: 1}
	if !a.Newer(b) || b.Newer(a) || a.Newer(a) {
		t.Fatal("Newer ordering")
	}
}
