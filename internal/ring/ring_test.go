package ring

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"
)

func TestPreferenceListProperties(t *testing.T) {
	r := New(5, 32)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		pl := r.PreferenceList(key, 3)
		if len(pl) != 3 {
			t.Fatalf("preference list length %d", len(pl))
		}
		seen := map[int]bool{}
		for _, n := range pl {
			if n < 0 || n >= 5 {
				t.Fatalf("node %d out of range", n)
			}
			if seen[n] {
				t.Fatalf("duplicate node in preference list %v", pl)
			}
			seen[n] = true
		}
	}
}

func TestPreferenceListDeterministic(t *testing.T) {
	a := New(5, 16)
	b := New(5, 16)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		pa := a.PreferenceList(key, 3)
		pb := b.PreferenceList(key, 3)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("rings disagree for %s: %v vs %v", key, pa, pb)
			}
		}
	}
}

func TestFullClusterList(t *testing.T) {
	r := New(4, 8)
	pl := r.PreferenceList("anything", 4)
	seen := map[int]bool{}
	for _, n := range pl {
		seen[n] = true
	}
	if len(seen) != 4 {
		t.Fatalf("full preference list should cover all nodes: %v", pl)
	}
}

func TestCoordinatorStable(t *testing.T) {
	r := New(3, 16)
	c1 := r.Coordinator("user:42")
	c2 := r.Coordinator("user:42")
	if c1 != c2 {
		t.Fatal("coordinator not stable")
	}
}

func TestLoadBalance(t *testing.T) {
	r := New(4, 128)
	fracs := r.LoadBalance(20000)
	for i, f := range fracs {
		if f < 0.15 || f > 0.35 {
			t.Fatalf("node %d owns %.3f of keyspace, want ≈0.25", i, f)
		}
	}
}

func TestMoreVnodesImproveBalance(t *testing.T) {
	spread := func(vnodes int) float64 {
		r := New(4, vnodes)
		fr := r.LoadBalance(20000)
		lo, hi := fr[0], fr[0]
		for _, f := range fr[1:] {
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		return hi - lo
	}
	if spread(256) > spread(1)+0.01 {
		t.Fatalf("256 vnodes (spread %v) should balance at least as well as 1 (spread %v)",
			spread(256), spread(1))
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, 8) },
		func() { New(3, 0) },
		func() { New(3, 8).PreferenceList("k", 4) },
		func() { New(3, 8).PreferenceList("k", 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSingleNodeRing(t *testing.T) {
	r := New(1, 4)
	if r.Coordinator("x") != 0 {
		t.Fatal("single node ring")
	}
	if got := r.PreferenceList("x", 1); len(got) != 1 || got[0] != 0 {
		t.Fatal("single node preference list")
	}
}

// TestVnodePointsMatchSprintfNames pins the circle to its original
// construction: every vnode sits at the FNV-1a + SplitMix64 hash of the
// name fmt.Sprintf("node-%d#vnode-%d", id, v), whatever the ID set, so
// building names in a stack buffer moved no point and no key.
func TestVnodePointsMatchSprintfNames(t *testing.T) {
	ref := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		z := h.Sum64()
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for _, ids := range [][]int{{0}, {0, 1, 2}, {4, 17, 9}, {1 << 20, 3, 1<<31 - 1}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		for _, vnodes := range []int{1, 16, 64} {
			r := NewWithIDs(ids, vnodes)
			want := make([]vnode, 0, len(ids)*vnodes)
			for _, id := range ids {
				for v := 0; v < vnodes; v++ {
					want = append(want, vnode{hash: ref(fmt.Sprintf("node-%d#vnode-%d", id, v)), node: id})
				}
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].hash != want[j].hash {
					return want[i].hash < want[j].hash
				}
				return want[i].node < want[j].node
			})
			if !slices.Equal(r.points, want) {
				t.Fatalf("ids %v vnodes %d: ring points differ from the Sprintf construction", ids, vnodes)
			}
		}
	}
	if Hash("node-1#vnode-2") != Hash([]byte("node-1#vnode-2")) || Hash("k") != ref("k") {
		t.Fatal("Hash disagrees between string and bytes or with FNV-1a + SplitMix64")
	}
}

// TestAppendPreferenceListAllocs: with room in the caller's scratch, the
// preference list and the coordinator cost no allocation, and the appended
// list equals PreferenceList's.
func TestAppendPreferenceListAllocs(t *testing.T) {
	r := New(5, 64)
	key := []byte("user:42")
	var buf [8]int
	if got, want := r.AppendPreferenceList(buf[:0], Hash(key), 3), r.PreferenceList(string(key), 3); !slices.Equal(got, want) {
		t.Fatalf("AppendPreferenceList = %v, PreferenceList = %v", got, want)
	}
	if a := testing.AllocsPerRun(100, func() {
		r.AppendPreferenceList(buf[:0], Hash(key), 5)
		r.Coordinator("user:42")
	}); a != 0 {
		t.Fatalf("AppendPreferenceList + Coordinator: %.1f allocs, want 0", a)
	}
}
