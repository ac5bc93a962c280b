package server

import (
	"encoding/hex"
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
			// An opApply payload is exactly one version.
			d := &decoder{b: b}
			if v := d.version(); d.err != nil || v != tc.want || len(d.b) != 0 {
				t.Fatalf("version = %+v (err %v, %d bytes left), want %+v", v, d.err, len(d.b), tc.want)
			}
			d = &decoder{b: b}
			if v := d.versionForKey(tc.want.Key); d.err != nil || v != tc.want || len(d.b) != 0 {
				t.Fatalf("versionForKey = %+v (err %v, %d bytes left), want %+v", v, d.err, len(d.b), tc.want)
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
			d = &decoder{b: short}
			if d.version(); d.err == nil {
				t.Fatal("version accepted a short clock entry list")
			}
			d = &decoder{b: short}
			if d.versionForKey(tc.want.Key); d.err == nil {
				t.Fatal("versionForKey accepted a short clock entry list")
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
