package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// compiledSink keeps the compiled stream live so the compiler cannot drop
// the measured call.
var compiledSink *Compiled

// BenchmarkScenarioCompile lowers the serving benchmark's stream: the
// dimm-aging drift schedule on a 240-node fleet, cycling seeds 3–5 (the
// three streams a seed-1 benchmark run compiles). Nearly all of the cost
// is telemetry generation and ordering the event log.
func BenchmarkScenarioCompile(b *testing.B) {
	data, err := os.ReadFile(filepath.Join(specDir, "dimm-aging.json"))
	if err != nil {
		b.Fatal(err)
	}
	spec, err := Decode(data)
	if err != nil {
		b.Fatal(err)
	}
	spec.Fleet.Nodes = 240
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec.Seed = 3 + int64(i%3)
		if compiledSink, err = Compile(spec); err != nil {
			b.Fatal(err)
		}
	}
}
