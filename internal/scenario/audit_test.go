package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	uerl "repro"
)

// guardedAuditDigests pins the full audit trail of every named scenario
// that sets lifecycle.guard: a SHA-256 over every field of every event,
// in trail order. The summary goldens only count events; these digests
// also pin each event's generation, lineage parent, score, detail and
// position. worker-loss guards its fleet workers, whose budget events
// stay on the workers, so its digest pins the learner's empty trail.
// Regenerate (only for an intended behaviour change) by running the test
// and copying the reported digests.
var guardedAuditDigests = map[string]string{
	"dimm-aging":  "fb7d017680f1d4ec3364f97272575674fca385ecff60df2815a8c4af7893e231",
	"rack-burst":  "7971bd29621ba8988ae812494d2b4b227bd8871619a7f3efcdfa48975df5a072",
	"rowhammer":   "6546600d393dbe4f4aa1324c8f1b7b2b565889673001038eff5dd279710a0d98",
	"slow-pfs":    "01607d4bd42924b678eaa982ed2361361c808431f2f88fe17d3bc8a4bf1737fd",
	"worker-loss": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

// auditDigest hashes every field of every event, length-prefixing the
// strings so no two distinct trails can collide by concatenation.
func auditDigest(events []uerl.LifecycleEvent) (string, int) {
	h := sha256.New()
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putStr := func(s string) {
		putU64(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, ev := range events {
		putStr(string(ev.Kind))
		putStr(ev.Time.UTC().Format(time.RFC3339Nano))
		putU64(uint64(int64(ev.Generation)))
		putStr(ev.ModelVersion)
		putStr(ev.Parent)
		putU64(math.Float64bits(ev.Score))
		putStr(ev.Detail)
	}
	return hex.EncodeToString(h.Sum(nil)), len(events)
}

// TestGuardedAuditTrailPinned replays every guarded named scenario and
// compares its whole audit trail, read from the learner through
// Compiled.Probe, against the pinned digest.
func TestGuardedAuditTrailPinned(t *testing.T) {
	specs := namedSpecs(t)
	for name, want := range guardedAuditDigests {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, ok := specs[name]
			if !ok {
				t.Fatalf("no named spec %q", name)
			}
			if spec.Lifecycle.Guard == nil {
				t.Fatalf("%s sets no lifecycle.guard", name)
			}
			c, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			var events []uerl.LifecycleEvent
			c.Probe = func(_ uerl.Serving, l *uerl.OnlineLearner) func() {
				return func() { events = l.Events() }
			}
			if _, err := RunCompiled(c); err != nil {
				t.Fatal(err)
			}
			got, n := auditDigest(events)
			if got != want {
				t.Errorf("audit trail of %d events hashes to %s, pinned %s", n, got, want)
			}
		})
	}
	for name, spec := range specs {
		if _, pinned := guardedAuditDigests[name]; spec.Lifecycle.Guard != nil && !pinned {
			t.Errorf("guarded scenario %s has no pinned audit digest", name)
		}
	}
}
