package cloud

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

func encodeGobTrace(t testing.TB, g gobTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptTraces are hostile inputs to `netconstant replay -i`: each must
// decode to an error, never a panic or a trace that replays NaN.
func corruptTraces() map[string]gobTrace {
	cells := []float64{1, 2, 3, 4}
	return map[string]gobTrace{
		"negative size with snapshots": {N: -2, Times: []float64{0}, Lat: [][]float64{cells}, Bw: [][]float64{cells}},
		"negative size, no snapshots":  {N: -7},
		"size whose square overflows":  {N: 1 << 32, Times: []float64{0}, Lat: [][]float64{nil}, Bw: [][]float64{nil}},
		"NaN latency":                  {N: 2, Times: []float64{0}, Lat: [][]float64{{0, math.NaN(), 1, 0}}, Bw: [][]float64{cells}},
		"+Inf bandwidth":               {N: 2, Times: []float64{0}, Lat: [][]float64{cells}, Bw: [][]float64{{0, math.Inf(1), 1, 0}}},
		"-Inf bandwidth":               {N: 2, Times: []float64{0}, Lat: [][]float64{cells}, Bw: [][]float64{{0, math.Inf(-1), 1, 0}}},
		"NaN time":                     {N: 2, Times: []float64{math.NaN()}, Lat: [][]float64{cells}, Bw: [][]float64{cells}},
		"snapshot not N×N":             {N: 2, Times: []float64{0}, Lat: [][]float64{{1, 2, 3}}, Bw: [][]float64{cells}},
	}
}

func TestDecodeTraceRejectsCorrupt(t *testing.T) {
	for name, g := range corruptTraces() {
		t.Run(name, func(t *testing.T) {
			tr, err := DecodeTrace(bytes.NewReader(encodeGobTrace(t, g)))
			if err == nil {
				t.Fatalf("decoded a corrupt trace: N=%d, %d snapshots", tr.N, tr.Len())
			}
		})
	}
}

// FuzzDecodeTrace: any input either fails to decode or yields a trace
// whose encoding is a fixed point of decode∘encode.
func FuzzDecodeTrace(f *testing.F) {
	vc, err := smallProvider(13).Provision(3, 37)
	if err != nil {
		f.Fatal(err)
	}
	var rec bytes.Buffer
	if err := Record(vc, 50, 25).Encode(&rec); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	for _, g := range corruptTraces() {
		f.Add(encodeGobTrace(f, g))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := tr.Encode(&once); err != nil {
			t.Fatalf("re-encoding a decoded trace: %v", err)
		}
		back, err := DecodeTrace(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decoding a re-encoded trace: %v", err)
		}
		if err := back.Encode(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("re-encoding is not stable")
		}
		if tr.Len() > 0 && tr.N > 1 {
			if l := NewReplay(tr).PairPerf(0, 1); math.IsNaN(l.Alpha) || math.IsNaN(l.Beta) {
				t.Fatalf("replay serves %+v", l)
			}
		}
	})
}
