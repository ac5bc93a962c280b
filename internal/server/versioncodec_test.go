package server

import (
	"encoding/hex"
	"fmt"
	"testing"

	"pbs/internal/kvstore"
)

// Versions in the wire layout used while every version carried a vector
// clock, each with a two-entry clock list after the value. Decoders skip
// the entries.
var legacyWireVersions = []struct {
	name string
	hex  string
	want kvstore.Version
}{
	{
		// "k1", seq epoch 1 | counter 7, live, value "v", clock {1: 3, 2: 9}.
		name: "live",
		hex: "0002" + "6b31" + "0001000000000007" + "00" + "00000001" + "76" + "0002" +
			"00000001" + "0000000000000003" + "00000002" + "0000000000000009",
		want: kvstore.Version{Key: "k1", Seq: 1<<48 | 7, Value: "v"},
	},
	{
		// "gone", seq 42, tombstone, no value, clock {0: 1, 3: 42}.
		name: "tombstone",
		hex: "0004" + "676f6e65" + "000000000000002a" + "01" + "00000000" + "0002" +
			"00000000" + "0000000000000001" + "00000003" + "000000000000002a",
		want: kvstore.Version{Key: "gone", Seq: 42, Tombstone: true},
	},
}

func TestLegacyClockLayout(t *testing.T) {
	for _, tc := range legacyWireVersions {
		t.Run(tc.name, func(t *testing.T) {
			b, err := hex.DecodeString(tc.hex)
			if err != nil {
				t.Fatal(err)
			}
			// An opApply payload is a count, then that many versions.
			d := &decoder{b: append([]byte{0, 1}, b...)}
			if count, v := d.legCount(), d.version(); d.err != nil || count != 1 || v != tc.want || len(d.b) != 0 {
				t.Fatalf("apply of %d: version = %+v (err %v, %d bytes left), want 1 of %+v", count, v, d.err, len(d.b), tc.want)
			}
			// A get answer is a found byte, then one version.
			d = &decoder{b: append([]byte{1}, b...)}
			r := d.readAnswer([]byte(tc.want.Key))
			if got := r.version([]byte(tc.want.Key)); d.err != nil || !r.found || got != tc.want || len(d.b) != 0 {
				t.Fatalf("readAnswer = %+v (err %v, %d bytes left), want %+v", got, d.err, len(d.b), tc.want)
			}
			// An opApplyHint payload is a u32 target, then one version.
			hinted := func(b []byte) (int, kvstore.Version, error) {
				d := &decoder{b: append([]byte{0, 0, 0, 2}, b...)}
				target := int(d.u32())
				return target, d.version(), d.err
			}
			if target, v, err := hinted(b); err != nil || target != 2 || v != tc.want {
				t.Fatalf("hinted apply = %d, %+v, %v; want 2, %+v", target, v, err, tc.want)
			}

			// The count still says two entries but only one is present.
			short := b[:len(b)-12]
			d = &decoder{b: append([]byte{0, 1}, short...)}
			d.legCount()
			if d.version(); d.err == nil {
				t.Fatal("apply accepted a short clock entry list")
			}
			d = &decoder{b: append([]byte{1}, short...)}
			if d.readAnswer([]byte(tc.want.Key)); d.err == nil {
				t.Fatal("readAnswer accepted a short clock entry list")
			}
			d = &decoder{b: append([]byte{1}, b...)}
			if d.readAnswer([]byte(tc.want.Key + "x")); d.err == nil {
				t.Fatal("readAnswer accepted an answer for another key")
			}
			if _, _, err := hinted(short); err == nil {
				t.Fatal("hinted apply accepted a short clock entry list")
			}
		})
	}
}

// TestVersionGolden pins the version encoding written today: clock count 0.
func TestVersionGolden(t *testing.T) {
	v := kvstore.Version{Key: "k1", Seq: 1<<48 | 7, Value: "v", Tombstone: true}
	const want = "0002" + "6b31" + "0001000000000007" + "01" + "00000001" + "76" + "0000"
	if got := hex.EncodeToString(encodeVersion(nil, v)); got != want {
		t.Fatalf("encodeVersion = %s\nwant            %s", got, want)
	}
}

// TestLegCountBounds: an apply or get carries 1 to maxBatchOps entries. A
// replica answers a full list entry by entry, and refuses a count outside
// the range without touching its store.
func TestLegCountBounds(t *testing.T) {
	n := fuzzNode()
	for _, count := range []int{0, 1, maxBatchOps, maxBatchOps + 1} {
		key := fmt.Sprintf("bounds-%d", count)
		vers := make([]kvstore.Version, count)
		keys := make([][]byte, count)
		for i := range vers {
			vers[i] = kvstore.Version{Key: key, Seq: uint64(i + 1), Value: "v"}
			keys[i] = []byte(key)
		}
		ok := count >= 1 && count <= maxBatchOps
		status, resp := n.handlePeerOp(opApply, appendApply(nil, vers), nil)
		if got := status == statusOK && len(resp) == 9*count; got != ok {
			t.Errorf("apply of %d: status %d with %d answer bytes, want served %v", count, status, len(resp), ok)
		}
		if _, found := n.getLocal(key); found != ok {
			t.Errorf("apply of %d: key stored %v, want %v", count, found, ok)
		}
		status, resp = n.handlePeerOp(opGet, appendGet(nil, keys), nil)
		served := status == statusOK
		d := &decoder{b: resp}
		for i := 0; served && i < count; i++ {
			if r := d.readAnswer(keys[i]); d.err != nil || r.seq != uint64(count) {
				t.Fatalf("get of %d: answer %d = seq %d (err %v), want seq %d", count, i, r.seq, d.err, count)
			}
		}
		if served != ok || (served && len(d.b) != 0) {
			t.Errorf("get of %d: status %d with %d bytes left over, want served %v", count, status, len(d.b), ok)
		}
	}
}
