package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// Hash is the SHA-256 of the inputs' canonical JSON encoding (map keys
// sorted), the fingerprint the determinism test compares across seeds.
func (in *Inputs) Hash() string {
	b, err := json.Marshal(in)
	if err != nil {
		panic(err) // plain data: a marshal failure is a bug
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// StreamHash fingerprints the first n ops of every client stream.
func (in *Inputs) StreamHash(n int) string {
	h := sha256.New()
	for c, s := range in.Streams {
		if n > len(s) {
			n = len(s)
		}
		b, err := json.Marshal(s[:n])
		if err != nil {
			panic(err)
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint64(hdr[:], uint64(c))
		h.Write(hdr[:])
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDeterministicInputs: the same seed gives byte-identical inputs and
// op streams, and another seed gives different ones.
func TestDeterministicInputs(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b, c := w.Gen(1), w.Gen(1), w.Gen(2)
		if a.Hash() != b.Hash() || a.StreamHash(4096) != b.StreamHash(4096) {
			t.Errorf("%s: seed 1 generated different inputs twice", name)
		}
		if a.Hash() == c.Hash() || a.StreamHash(4096) == c.StreamHash(4096) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
		if len(a.Streams) != w.Clients {
			t.Errorf("%s: %d streams for %d clients", name, len(a.Streams), w.Clients)
		}
	}
}

// specSizes is the "sizes" part of spec.json: what each workload's
// generator produces for seed 1.
type specSizes struct {
	Workloads map[string]struct {
		Clients int            `json:"clients"`
		Sizes   map[string]int `json:"sizes"`
	} `json:"workloads"`
}

// sizesOf measures the generated inputs of seed 1.
func sizesOf(w *Workload) map[string]int {
	in := w.Gen(1)
	s := map[string]int{"stream_ops_per_client": len(in.Streams[0])}
	for _, spec := range in.DBs {
		s["facts."+spec.Name] = len(spec.Facts)
	}
	if len(in.Pool) > 0 {
		lo, hi := len(in.Pool[0].Facts), 0
		for _, spec := range in.Pool {
			lo, hi = min(lo, len(spec.Facts)), max(hi, len(spec.Facts))
		}
		s["pool_databases"] = len(in.Pool)
		s["pool_facts_min"], s["pool_facts_max"] = lo, hi
	}
	if in.ClusterSize > 0 {
		s["clusters"], s["cluster_nodes"], s["toggled_facts_per_client"] = liveClusters, in.ClusterSize, liveToggles
		s["weighted_facts"] = len(in.DBs[0].Weights)
	}
	return s
}

// TestSpecSizes: every generator gives the sizes spec.json records.
func TestSpecSizes(t *testing.T) {
	raw, err := os.ReadFile("spec.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec specSizes
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		rec, ok := spec.Workloads[name]
		if !ok {
			t.Errorf("spec.json has no workload %s", name)
			continue
		}
		if got := sizesOf(workloads[name]); !reflect.DeepEqual(got, rec.Sizes) {
			t.Errorf("%s: generator sizes %v, spec.json records %v", name, got, rec.Sizes)
		}
		if rec.Clients != workloads[name].Clients {
			t.Errorf("%s: %d clients, spec.json records %d", name, workloads[name].Clients, rec.Clients)
		}
	}
}

// TestBenchmarkJSONMetrics: BENCHMARK.json lists exactly the metrics the
// benchmark reports, with the same units.
func TestBenchmarkJSONMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	got := map[string]string{}
	for _, m := range bench.PerLayer {
		got[m.Name] = m.Unit
	}
	if want := perLayerUnits(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v\nbenchmark reports %v", got, want)
	}
	got = map[string]string{}
	for _, m := range bench.EndToEnd {
		got[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, endToEndUnits) {
		t.Errorf("BENCHMARK.json end_to_end %v\nbenchmark reports %v", got, endToEndUnits)
	}
}
