package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseScenario checks that the scenario parser never panics on
// arbitrary input, and that anything it accepts survives a
// parse→format→parse round trip unchanged — String is a canonical,
// lossless rendering, which is what makes the scenario text a stable
// content hash for recording headers.
//
// The seed corpus layers three sources: hand-picked clauses covering
// every key, the golden scenario files under testdata/scenarios, and
// the fault-DSL seeds wrapped as fault clauses (the scenario grammar
// embeds that parser, so its edge cases are our edge cases).
func FuzzParseScenario(f *testing.F) {
	f.Add("")
	f.Add("scenario x\n")
	f.Add("nodes 16\nrounds 4\nalgorithms IQ,HBC\n")
	f.Add("phi 0.25\nloss 0.1\nseed -9\ncapacity 8\n")
	f.Add("tree bfs\nvalues 3\narea 90.5\nrange 22.25\n")
	f.Add("data synthetic universe=1024 period=31 noise=5 amplitude=0.2 spread=0.5\n")
	f.Add("data pressure skip=3 pessimistic=true\n")
	f.Add("algorithms TAG,POS,LCLL-H,LCLL-S,HBC,HBC-NB,IQ,ADAPT\n")
	f.Add("arq off\n")
	f.Add("arq retries=2 dead=4\n")
	f.Add("alerts storm=frames:mean(5)>400; err=rank_error:max(3)>=10,20\n")
	f.Add("slo rank\n")
	f.Add("slo rank epsilon=0.02 objective=0.999\nslo fresh stale=2\nslo latency ms=25 fast=4 slow=32 warn=3 crit=10\n")
	f.Add("slo bogus\nslo rank epsilon=\nslo rank name=a\nslo rank name=a\n")
	f.Add("adapt on storm(warn) do switch iq\n")
	f.Add("adapt on burnrate(crit) do reroot hold 3 cooldown 16; on excursion(warn) do widen 1.5\n")
	f.Add("adapt on storm do narrow 2 cooldown 0\nadapt on bogus do reroot\n")
	f.Add("sweep loss 0.05,0.1,0.2\n")
	f.Add("sweep nodes 10,20,40\n")
	f.Add("# comment\n\nnodes 12\n")
	f.Add("nodes 1e3\nphi NaN\nloss +Inf\n")
	f.Add("fault crash@\n")

	// Fault-DSL seeds, wrapped the way a scenario file embeds them.
	for _, spec := range []string{
		"crash@120:n17", "crash@3-6:n5", "burst(p=0.3,len=8):link",
		"burst(p=0.05,len=2.5):n3", "partition@100-140",
		"crash@0:n0;burst(p=1,len=1):link;partition@1-2",
		" crash@5:n1 ;; ", "burst(p=1e-3,len=1e6)", "burst(p=,len=)",
	} {
		f.Add("nodes 200\nfault " + spec + "\n")
	}

	// Golden scenarios: the canonical files must stay parseable forever.
	golden, _ := filepath.Glob("../../testdata/scenarios/*.scn")
	for _, path := range golden {
		if b, err := os.ReadFile(path); err == nil {
			f.Add(string(b))
		}
	}

	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		formatted := s.String()
		s2, err := Parse(formatted)
		if err != nil {
			t.Fatalf("Parse ok but Parse(String()) failed: %v\ncanonical:\n%s", err, formatted)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed the scenario:\n in  %+v\n out %+v\ncanonical:\n%s", s, s2, formatted)
		}
		if s2.String() != formatted {
			t.Fatalf("String not stable:\n%s\nthen\n%s", formatted, s2.String())
		}
		if s.Hash() != s2.Hash() {
			t.Fatalf("hash not stable across round trip")
		}
	})
}

// FuzzDecodeRecord checks the replay decoder's fast path against
// encoding/json: on any line, both must fail or both must succeed with
// the same record. The seeds are every line of the committed golden
// recordings plus hand-picked shapes the fast path must hand to
// encoding/json (escapes, nulls, differently cased and duplicate keys,
// non-integer numbers in integer fields, trailing data).
func FuzzDecodeRecord(f *testing.F) {
	recordings, _ := filepath.Glob("../../testdata/recordings/*.rec.jsonl")
	for _, path := range recordings {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(b, []byte("\n")) {
			f.Add(line)
		}
	}
	for _, line := range []string{
		`{}`,
		`{"round":{}}`,
		`{"round":null}`,
		`{"run":{"key":"IQ"}}`,
		` { "round" : { "key" : "IQ" , "k" : 3 , "point" : { "joules" : 1e-3 } } } `,
		`{"round":{"key":"IQ","answer":1}}`,
		`{"round":{"Key":"IQ","ANSWER":2}}`,
		`{"round":{"key":"IQ","key":"HBC","point":{"round":1},"point":{"span":2}}}`,
		`{"round":{"answer":1.5}}`,
		`{"round":{"answer":1e2}}`,
		`{"round":{"answer":-0,"point":{"joules":-0}}}`,
		`{"round":{"answer":01}}`,
		`{"round":{"answer":99999999999999999999}}`,
		`{"round":{"point":{"joules":1e999}}}`,
		`{"round":{"point":{"heap_live_bytes":-9223372036854775808}}}`,
		`{"round":{"point":{"bogus":1}}}`,
		`{"round":{"k":null}}`,
		`{"round":{"k":1}} x`,
		`{"round":{"k":1},}`,
		"{\"round\":{\"key\":\"caf\u00e9\"}}",
		`{"round":{"key":"tab\tescape"}}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var dec recordDecoder
		var fast, want fileRecord
		errFast := dec.decode(line, &fast)
		errWant := json.Unmarshal(line, &want)
		if (errFast == nil) != (errWant == nil) {
			t.Fatalf("decode error %v, encoding/json error %v on %q", errFast, errWant, line)
		}
		if errWant == nil && !reflect.DeepEqual(fast, want) {
			t.Fatalf("decode %+v, encoding/json %+v on %q", fast.Round, want.Round, line)
		}
	})
}
