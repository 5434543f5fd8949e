package main

import (
	"strings"
	"testing"
)

// The validation contract: every bad flag value must be rejected up
// front with a specific message (main prints it and exits 2), before
// any journal, socket or simulation work happens.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the validation message; "" = valid
	}{
		{"no mode", []string{}, "one of -listen"},
		{"both modes", []string{"-listen", ":0", "-join", "http://x:1"}, "mutually exclusive"},
		{"coordinator ok", []string{"-listen", ":0", "-journal", "j"}, ""},
		{"listen not hostport", []string{"-listen", "nope", "-journal", "j"}, "-listen"},
		{"listen without journal", []string{"-listen", ":0"}, "needs -journal"},
		{"submit with listen", []string{"-listen", ":0", "-journal", "j", "-submit", "{}"}, "need -join"},
		{"worker ok", []string{"-join", "http://127.0.0.1:8990"}, ""},
		{"join not a url", []string{"-join", "127.0.0.1:8990"}, "not an http(s) URL"},
		{"join with workers", []string{"-join", "http://x:1", "-workers", "2"}, "needs -listen"},
		{"negative workers", []string{"-listen", ":0", "-journal", "j", "-workers", "-1"}, "-workers"},
		{"huge workers", []string{"-listen", ":0", "-journal", "j", "-workers", "100000"}, "-workers"},
		{"zero lease", []string{"-listen", ":0", "-journal", "j", "-lease", "0s"}, "-lease"},
		{"negative lease", []string{"-listen", ":0", "-journal", "j", "-lease", "-5s"}, "-lease"},
		{"negative retries", []string{"-listen", ":0", "-journal", "j", "-max-retries", "-1"}, "-max-retries"},
		{"retries ok zero", []string{"-listen", ":0", "-journal", "j", "-max-retries", "0"}, ""},
		{"negative cap", []string{"-listen", ":0", "-journal", "j", "-queue-cap", "-1"}, "-queue-cap"},
		{"cap ok zero", []string{"-listen", ":0", "-journal", "j", "-queue-cap", "0"}, ""},
		{"negative backoff", []string{"-listen", ":0", "-journal", "j", "-backoff", "-1s"}, "-backoff"},
		{"negative tenant rate", []string{"-listen", ":0", "-journal", "j", "-tenant-rate", "-1"}, "-tenant-rate"},
		{"rate without burst", []string{"-listen", ":0", "-journal", "j", "-tenant-rate", "2", "-tenant-burst", "0"}, "-tenant-burst"},
		{"bad http addr", []string{"-listen", ":0", "-journal", "j", "-http", "nope"}, "-http"},
		{"zero slice", []string{"-join", "http://x:1", "-slice", "0"}, "-slice"},
		{"zero poll", []string{"-join", "http://x:1", "-poll", "0s"}, "-poll"},
		{"submit bad json", []string{"-join", "http://x:1", "-submit", "{"}, "not a JobSpec"},
		{"submit bad scheme", []string{"-join", "http://x:1", "-submit", `{"benchmark":"sgemm","scheme":"nope"}`}, "unknown scheme"},
		{"submit misspelled field", []string{"-join", "http://x:1", "-submit", `{"benchmark":"sgemm","schme":"replay-queue"}`}, "unknown field"},
		{"submit switching on baseline", []string{"-join", "http://x:1", "-submit", `{"benchmark":"sgemm","switching":true}`}, "preemptible scheme"},
		{"submit ok", []string{"-join", "http://x:1", "-submit", `{"benchmark":"sgemm"}`}, ""},
		{"wait without submit", []string{"-join", "http://x:1", "-wait"}, "-wait needs -submit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(tc.args)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			msg := o.validate()
			if tc.want == "" {
				if msg != "" {
					t.Fatalf("valid flags rejected: %s", msg)
				}
				return
			}
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("message %q does not mention %q", msg, tc.want)
			}
		})
	}
}
