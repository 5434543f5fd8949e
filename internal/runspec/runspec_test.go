package runspec

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"gpues/internal/config"
	"gpues/internal/excep"
	"gpues/internal/sim"
)

// fromArgs parses a gpusim model-flag argument list.
func fromArgs(args []string) (*JobSpec, error) {
	fs := flag.NewFlagSet("gpusim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	js := Bind(fs)
	return js, fs.Parse(args)
}

// fromItems applies a simbisect -a/-b override list to gpusim's
// defaults.
func fromItems(items string) (*JobSpec, error) {
	fs := flag.NewFlagSet("simbisect", flag.ContinueOnError)
	js := Bind(fs)
	return js, SetItems(fs, items)
}

// fromJSON decodes a job API submit payload as strictly as the
// coordinator does.
func fromJSON(doc string) (*JobSpec, error) {
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.DisallowUnknownFields()
	js := &JobSpec{}
	return js, dec.Decode(js)
}

// buildKey parses with one front end and builds the result: the
// fingerprints a checkpoint or cache entry would carry.
func buildKey(js *JobSpec, err error) (cfg, spec uint64, _ error) {
	if err != nil {
		return 0, 0, err
	}
	c, s, err := js.Build()
	if err != nil {
		return 0, 0, err
	}
	return sim.FingerprintConfig(c), sim.FingerprintSpec(s), nil
}

// TestFlagContract is the exit-2 promise of gpusim, simbisect and
// simserver in one table: the same run spelled as gpusim flags, as a
// simbisect override list and (where the job API carries its axes) as
// JobSpec JSON is accepted or rejected alike, and an accepted one
// yields the same config and launch fingerprints on every path.
func TestFlagContract(t *testing.T) {
	cases := []struct {
		name  string
		args  []string // gpusim model flags
		items string   // simbisect -a/-b overrides
		json  string   // job API payload; "" when the API cannot spell it
		want  string   // substring of the rejection; "" = valid
	}{
		{"defaults", nil, "", `{"benchmark":"sgemm"}`, ""},
		{"use case 1",
			[]string{"-workload", "stencil", "-scheme", "replay-queue", "-paging", "-switching", "-link", "pcie"},
			"workload=stencil,scheme=replay-queue,paging=true,switching=true,link=pcie",
			`{"benchmark":"stencil","scheme":"replay-queue","placement":"paging","switching":true,"link":"pcie"}`, ""},
		{"use case 2",
			[]string{"-workload", "halloc-spree", "-lazy", "-local"},
			"workload=halloc-spree,lazy=true,local=true",
			`{"benchmark":"halloc-spree","placement":"lazy","local":true}`, ""},
		{"scale and cycle bound",
			[]string{"-workload", "mri-q", "-scale", "2", "-max-cycles", "100000", "-scheme", "wd-commit"},
			"workload=mri-q,scale=2,max-cycles=100000,scheme=wd-commit",
			`{"benchmark":"mri-q","scale":2,"max_cycles":100000,"scheme":"wd-commit"}`, ""},
		{"paging then lazy off",
			[]string{"-paging", "-lazy=false"}, "paging=true,lazy=false",
			`{"benchmark":"sgemm","placement":"paging"}`, ""},
		{"operand log size",
			[]string{"-scheme", "operand-log", "-log-kb", "8"}, "scheme=operand-log,log-kb=8", "", ""},
		{"preemptible delivery",
			[]string{"-workload", "assert-demo", "-scheme", "replay-queue", "-switching", "-exception-mode", "preemptible"},
			"workload=assert-demo,scheme=replay-queue,switching=true,exception-mode=preemptible", "", ""},
		{"bit flips",
			[]string{"-workload", "mri-q", "-flip-seed", "7", "-flip-rate", "1e-5", "-protect-threads", "4"},
			"workload=mri-q,flip-seed=7,flip-rate=1e-5,protect-threads=4", "", ""},
		{"chaos, sampling and perturbations",
			[]string{"-scheme", "replay-queue", "-chaos-level", "2", "-chaos-seed", "9", "-sample-every", "1000",
				"-perturb", "5000:cache.l2,6000:dram"},
			"scheme=replay-queue,chaos-level=2,chaos-seed=9,sample-every=1000,perturb=5000:cache.l2,perturb=6000:dram", "", ""},

		{"switching on baseline",
			[]string{"-workload", "mri-q", "-switching"}, "workload=mri-q,switching=true",
			`{"benchmark":"mri-q","switching":true}`, "preemptible scheme"},
		{"paging and lazy", []string{"-paging", "-lazy"}, "paging=true,lazy=true", "", "mutually exclusive"},
		{"lazy and paging", []string{"-lazy", "-paging"}, "lazy=true,paging=true", "", "mutually exclusive"},
		{"negative scale", []string{"-scale", "-3"}, "scale=-3", `{"benchmark":"sgemm","scale":-3}`, "scale -3"},
		{"flip rate above 1", []string{"-flip-rate", "2"}, "flip-rate=2", "", "flip rate"},
		{"empty operand log", []string{"-scheme", "operand-log", "-log-kb", "0"}, "scheme=operand-log,log-kb=0", "", "operand log"},
		{"negative max cycles", []string{"-max-cycles", "-5"}, "max-cycles=-5", `{"benchmark":"sgemm","max_cycles":-5}`, "max cycles"},
		{"chaos level 4", []string{"-chaos-level", "4"}, "chaos-level=4", "", "level 4"},
		{"flip seed without rate", []string{"-flip-seed", "3"}, "flip-seed=3", "", "flip rate"},
		{"perturb without component", []string{"-perturb", "5000"}, "perturb=5000", "", "cycle:component"},
		{"perturb negative cycle", []string{"-perturb", "-1:cache.l2"}, "perturb=-1:cache.l2", "", "non-negative"},
		{"unknown workload", []string{"-workload", "nope"}, "workload=nope", `{"benchmark":"nope"}`, "unknown workload"},
		{"unknown scheme", []string{"-scheme", "nope"}, "scheme=nope", `{"benchmark":"sgemm","scheme":"nope"}`, "unknown scheme"},
		{"unknown link", []string{"-link", "usb"}, "link=usb", `{"benchmark":"sgemm","link":"usb"}`, "unknown link"},
		{"preemptible on baseline", []string{"-exception-mode", "preemptible"}, "exception-mode=preemptible", "", "preemptible scheme"},
		{"unknown exception mode", []string{"-exception-mode", "nope"}, "exception-mode=nope", "", "exception mode"},
		{"negative protect", []string{"-protect-threads", "-1"}, "protect-threads=-1", "", "protected thread"},
		{"negative sampling", []string{"-sample-every", "-1"}, "sample-every=-1", "", "sample period"},
		{"misspelled axis", []string{"-schme", "replay-queue"}, "schme=replay-queue",
			`{"benchmark":"sgemm","schme":"replay-queue"}`, "schme"},
		{"non-boolean switch", []string{"-switching=maybe"}, "switching=maybe", `{"benchmark":"sgemm","switching":"maybe"}`, "switching"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type front struct {
				name string
				js   *JobSpec
				err  error
			}
			fronts := []front{{name: "gpusim"}, {name: "simbisect"}}
			fronts[0].js, fronts[0].err = fromArgs(tc.args)
			fronts[1].js, fronts[1].err = fromItems(tc.items)
			if tc.json != "" {
				js, err := fromJSON(tc.json)
				fronts = append(fronts, front{"jobspec", js, err})
			}
			var wantCfg, wantSpec uint64
			for i, f := range fronts {
				cfg, spec, err := buildKey(f.js, f.err)
				if tc.want != "" {
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("%s: error %v, want one mentioning %q", f.name, err, tc.want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: valid run rejected: %v", f.name, err)
				}
				if i == 0 {
					wantCfg, wantSpec = cfg, spec
					continue
				}
				if cfg != wantCfg || spec != wantSpec {
					t.Fatalf("%s: fingerprints cfg %016x spec %016x, gpusim has %016x %016x",
						f.name, cfg, spec, wantCfg, wantSpec)
				}
			}
			// The fingerprints leave out the axes that are not config
			// (chaos, perturbations, sampling); the two flag spellings
			// must agree on those too.
			if tc.want == "" && !reflect.DeepEqual(fronts[0].js, fronts[1].js) {
				t.Fatalf("gpusim spec %+v, simbisect spec %+v", *fronts[0].js, *fronts[1].js)
			}
		})
	}
}

// TestOverrideSyntax: an item without '=' is not an override.
func TestOverrideSyntax(t *testing.T) {
	if _, err := fromItems("scheme=replay-queue,paging"); err == nil || !strings.Contains(err.Error(), "key=value") {
		t.Fatalf("error %v, want a key=value complaint", err)
	}
}

// TestDefaultsMatchConfig: the flag defaults and an empty JobSpec both
// build config.Default() with the resident placement.
func TestDefaultsMatchConfig(t *testing.T) {
	flags, err := fromArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := flags.Key()
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{Benchmark: "sgemm"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("flag defaults key %s, zero JobSpec key %s", a, b)
	}
}

// TestBuildSetsEveryAxis: Build maps each JobSpec axis onto its Config
// field. The contract table cannot see a dropped axis, since every
// front end shares Build.
func TestBuildSetsEveryAxis(t *testing.T) {
	kb := 8
	js := JobSpec{
		Benchmark: "sgemm", Scheme: "operand-log", Link: "pcie", Placement: "paging",
		Switching: true, Local: true, MaxCycles: 1000, LogKB: &kb, ExcepMode: "preemptible",
		Flip: excep.FlipConfig{Seed: 7, Rate: 0.5, ProtectThreads: 3}, SampleEvery: 100,
	}
	cfg, _, err := js.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := config.Default()
	want.Scheme = config.OperandLog
	want.Link = config.PCIeConfig()
	want.DemandPaging = true
	want.Scheduler.Enabled = true
	want.Local.Enabled = true
	want.MaxCycles = 1000
	want.SM.OperandLog.SizeKB = 8
	want.Excep.Mode = excep.ModePreemptible
	want.Excep.Flip = js.Flip
	want.SampleEvery = 100
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("Build config\n%+v\nwant\n%+v", cfg, want)
	}
}
