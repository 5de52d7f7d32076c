package timewarp

import (
	"errors"
	"strings"
	"testing"
)

// TestSetDefaultsValidation exercises every rejection path of Config
// validation directly (TestConfigErrors covers the New() wrapper). Each error
// must both match its sentinel (errors.Is) and name the offending value.
func TestSetDefaultsValidation(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		numLPs   int
		sentinel error
		wantErr  string
	}{
		{"zero clusters", Config{NumClusters: 0, ClusterOf: []int{0, 0}}, 2, ErrBadClusters, "at least one cluster"},
		{"negative clusters", Config{NumClusters: -3, ClusterOf: []int{0, 0}}, 2, ErrBadClusters, "at least one cluster"},
		{"short ClusterOf", Config{NumClusters: 2, ClusterOf: []int{0}}, 2, ErrBadAssignment, "covers 1 LPs"},
		{"long ClusterOf", Config{NumClusters: 2, ClusterOf: []int{0, 1, 0}}, 2, ErrBadAssignment, "covers 3 LPs"},
		{"nil ClusterOf", Config{NumClusters: 1}, 2, ErrBadAssignment, "covers 0 LPs"},
		{"cluster id too large", Config{NumClusters: 2, ClusterOf: []int{0, 2}}, 2, ErrBadAssignment, "assigned to cluster 2"},
		{"negative cluster id", Config{NumClusters: 2, ClusterOf: []int{-1, 0}}, 2, ErrBadAssignment, "assigned to cluster -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.setDefaults(tc.numLPs)
			if err == nil {
				t.Fatalf("config accepted: %+v", tc.cfg)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("error %q does not wrap sentinel %q", err, tc.sentinel)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateExported: the exported Validate checks entry ranges and knob
// domains without knowing the LP count, so callers can vet a configuration
// before they have handlers.
func TestValidateExported(t *testing.T) {
	good := Config{NumClusters: 2, ClusterOf: []int{0, 1, 1}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := Config{NumClusters: 2, ClusterOf: []int{0, 3}}
	if err := bad.Validate(); !errors.Is(err, ErrBadAssignment) {
		t.Fatalf("out-of-range assignment: got %v, want ErrBadAssignment", err)
	}
	// Validate must not mutate: zero-valued tunables stay zero.
	if good.GVTPeriodEvents != 0 || good.Net.InboxSize != 0 {
		t.Errorf("Validate mutated defaults: %+v", good.Net)
	}
}

// TestSetDefaultsApplied: zero-valued tunables must take their documented
// defaults, and explicit values must survive.
func TestSetDefaultsApplied(t *testing.T) {
	cfg := Config{NumClusters: 2, ClusterOf: []int{0, 1}}
	if err := cfg.setDefaults(2); err != nil {
		t.Fatal(err)
	}
	if cfg.GVTPeriodEvents != 4096 {
		t.Errorf("GVTPeriodEvents default = %d, want 4096", cfg.GVTPeriodEvents)
	}
	if cfg.Net.InboxSize != 8192 {
		t.Errorf("InboxSize default = %d, want 8192", cfg.Net.InboxSize)
	}
	if cfg.Dynamic.PeriodRounds != 4 {
		t.Errorf("Dynamic.PeriodRounds default = %d, want 4", cfg.Dynamic.PeriodRounds)
	}

	cfg = Config{
		NumClusters: 1, ClusterOf: []int{0, 0},
		GVTPeriodEvents: 7,
		Net:             NetConfig{InboxSize: 3},
		Dynamic:         DynamicConfig{PeriodRounds: 9},
	}
	if err := cfg.setDefaults(2); err != nil {
		t.Fatal(err)
	}
	if cfg.GVTPeriodEvents != 7 || cfg.Net.InboxSize != 3 || cfg.Dynamic.PeriodRounds != 9 {
		t.Errorf("explicit values overwritten: %+v", cfg)
	}

	// Negative tunables are treated as unset, like zero.
	cfg = Config{
		NumClusters: 1, ClusterOf: []int{0},
		GVTPeriodEvents: -1,
		Net:             NetConfig{InboxSize: -1},
		Dynamic:         DynamicConfig{PeriodRounds: -1},
	}
	if err := cfg.setDefaults(1); err != nil {
		t.Fatal(err)
	}
	if cfg.GVTPeriodEvents != 4096 || cfg.Net.InboxSize != 8192 || cfg.Dynamic.PeriodRounds != 4 {
		t.Errorf("negative tunables not defaulted: %+v", cfg)
	}
}

// TestNewKeepsConfigClusterOf: the kernel must copy the initial assignment
// into its routing table rather than aliasing the caller's slice — mutating
// the argument after New must not change routing.
func TestNewKeepsConfigClusterOf(t *testing.T) {
	clusterOf := []int{0, 1}
	k, err := New(Config{NumClusters: 2, ClusterOf: clusterOf}, []Handler{&pingLP{peer: 1}, &pingLP{peer: 0}})
	if err != nil {
		t.Fatal(err)
	}
	clusterOf[0] = 1
	if got := k.RouteOf(0); got != 0 {
		t.Errorf("route of LP 0 = %d after caller mutation, want 0", got)
	}
	if got := k.RouteOf(1); got != 1 {
		t.Errorf("route of LP 1 = %d, want 1", got)
	}
	if k.RouteEpoch() != 0 {
		t.Errorf("fresh kernel has route epoch %d, want 0", k.RouteEpoch())
	}
}

// TestSendPanicMessage: the strict-future violation must name the actual
// rule and include both times (the message used to be inverted — it fired
// on a non-future send but read "Send into the non-strict future"). The
// check precedes any queue work, so a bare Context exercises it.
func TestSendPanicMessage(t *testing.T) {
	for _, recvTime := range []Time{5, 3} { // at now, and in the past
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Send at recvTime %d with now 5 did not panic", recvTime)
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %T, want string", r)
				}
				for _, want := range []string{"strict future", "now 5"} {
					if !strings.Contains(msg, want) {
						t.Errorf("panic %q missing %q", msg, want)
					}
				}
			}()
			ctx := &Context{now: 5}
			ctx.Send(0, recvTime, 0, 0)
		}()
	}
}
