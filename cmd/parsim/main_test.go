package main

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/smoketest"
)

// TestParsimSmoke runs a tiny verified parallel simulation end to end.
func TestParsimSmoke(t *testing.T) {
	smoketest.Run(t,
		[]string{"-bench", "s5378", "-scale", "0.05", "-nodes", "2", "-cycles", "2", "-grain", "0"},
		"parallel run:",
		"verified against the sequential oracle",
	)
}

// TestParsimDynamicSmoke drives the hotspot workload with dynamic load
// balancing from the CLI; the run must still verify against the oracle and
// report the migration counters.
func TestParsimDynamicSmoke(t *testing.T) {
	smoketest.Run(t,
		[]string{
			"-bench", "s5378", "-scale", "0.08", "-nodes", "4", "-cycles", "8",
			"-grain", "200", "-algo", "random", "-hotspot", "-dynamic",
			"-rebalance-period", "1", "-imbalance", "1.0",
		},
		"parallel run:",
		"migrations=",
		"rebalance-rounds=",
		"verified against the sequential oracle",
	)
}

// TestParsimVectorsSmoke drives the bit-parallel mode from the CLI: one run
// carries 64 scenarios and every lane must verify against the vectored
// sequential oracle.
func TestParsimVectorsSmoke(t *testing.T) {
	smoketest.Run(t,
		[]string{"-bench", "s5378", "-scale", "0.05", "-nodes", "2", "-cycles", "2", "-grain", "0", "-vectors"},
		"parallel run:",
		"vectored: 64 lanes,",
		"wall per scenario",
		"verified all 64 lanes against the vectored sequential oracle",
	)
}

// TestParsimVectorsMultiProcessSmoke runs the vectored mode as two OS
// processes over TCP loopback: payload-bearing events cross the sockets and
// the gathered per-lane histories must still verify on every node.
func TestParsimVectorsMultiProcessSmoke(t *testing.T) {
	smoketest.RunCluster(t, 2,
		[]string{"-bench", "s5378", "-scale", "0.05", "-nodes", "2", "-cycles", "2", "-grain", "0", "-vectors"},
		"parallel run:",
		"committed events locally",
		"verified all 64 lanes against the vectored sequential oracle",
	)
}

// TestParsimMultiProcessSmoke runs one simulation as two OS processes
// joined over TCP loopback. Both processes must gather the same global
// committed total and independently verify it against the oracle.
func TestParsimMultiProcessSmoke(t *testing.T) {
	outs := smoketest.RunCluster(t, 2,
		[]string{"-bench", "s5378", "-scale", "0.05", "-nodes", "2", "-cycles", "2", "-grain", "0"},
		"parallel run:",
		"committed events locally",
		"verified against the sequential oracle",
	)
	re := regexp.MustCompile(`parallel run: .* wall, (\d+) committed events`)
	var global string
	for i, out := range outs {
		m := re.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("node %d: no global total in output:\n%s", i, out)
		}
		if global == "" {
			global = m[1]
		} else if m[1] != global {
			t.Errorf("node %d gathered %s committed events, node 0 gathered %s", i, m[1], global)
		}
	}
}

// chaosArgs is the shared flag set for the process-level chaos tests: a
// workload long enough to outlive any injected fault, a fast failure
// detector, and no oracle check (failing runs have nothing to verify). Over
// TCP loopback on a 2-vCPU host this circuit runs about 0.3 ms per cycle, so
// 20000 cycles last seconds even at ten times that speed.
func chaosArgs(extra ...string) []string {
	return append([]string{
		"-bench", "s5378", "-scale", "0.05", "-nodes", "2", "-cycles", "20000",
		"-grain", "0", "-noverify", "-heartbeat", "100ms", "-peer-timeout", "500ms",
	}, extra...)
}

// TestParsimChaosKillPeer SIGKILLs one of two processes mid-run: the
// survivor must exit with code 3 (mesh peer failure) naming the dead node,
// within the failure-detection bound — not hang on the FIN barrier, and not
// finish the run first.
func TestParsimChaosKillPeer(t *testing.T) {
	procs := smoketest.StartCluster(t, 2, func(int) []string { return chaosArgs() })
	// "mesh up" prints once the handshake completed, just before the node
	// sends its first event; the kill lands a short settle later, far
	// inside the run chaosArgs sizes.
	for _, p := range procs {
		p.WaitOutput(t, "mesh up", 30*time.Second)
	}
	time.Sleep(200 * time.Millisecond)
	procs[1].Kill()
	out, code := procs[0].Wait(t, 60*time.Second)
	if code != 3 {
		t.Fatalf("survivor exit code %d, want 3:\n%s", code, out)
	}
	if !strings.Contains(out, "node 1") {
		t.Errorf("survivor's error does not name the dead peer:\n%s", out)
	}
	if strings.Contains(out, "parallel run:") {
		t.Errorf("survivor completed the run before the kill landed:\n%s", out)
	}
}

// TestParsimChaosCorruptFrame injects a deterministic frame corruption on
// node 1's lane toward node 0: both processes must exit with code 3, and
// node 0 must blame node 1 for the bad frame.
func TestParsimChaosCorruptFrame(t *testing.T) {
	procs := smoketest.StartCluster(t, 2, func(node int) []string {
		if node == 1 {
			return chaosArgs("-fault", "peer=0,seed=7,corrupt=40")
		}
		return chaosArgs()
	})
	out0, code0 := procs[0].Wait(t, 60*time.Second)
	if code0 != 3 {
		t.Fatalf("node 0 exit code %d, want 3:\n%s", code0, out0)
	}
	if !strings.Contains(out0, "node 1") || !strings.Contains(out0, "bad frame") {
		t.Errorf("node 0 does not blame node 1's bad frame:\n%s", out0)
	}
	out1, code1 := procs[1].Wait(t, 60*time.Second)
	if code1 != 3 {
		t.Fatalf("node 1 exit code %d, want 3:\n%s", code1, out1)
	}
}

// TestParsimChaosStalledDial refuses node 1's dials for 500ms (well inside
// the 10s dial window): the jittered backoff must absorb it and the run
// completes verified, bit-identical to the oracle — exit code 0 on both.
func TestParsimChaosStalledDial(t *testing.T) {
	base := []string{
		"-bench", "s5378", "-scale", "0.05", "-nodes", "2", "-cycles", "2",
		"-grain", "0", "-heartbeat", "100ms", "-peer-timeout", "500ms",
	}
	procs := smoketest.StartCluster(t, 2, func(node int) []string {
		if node == 1 {
			return append(append([]string(nil), base...), "-fault", "refuse-dial=500ms")
		}
		return base
	})
	for i, p := range procs {
		out, code := p.Wait(t, 120*time.Second)
		if code != 0 {
			t.Fatalf("node %d exit code %d, want 0:\n%s", i, code, out)
		}
		if !strings.Contains(out, "verified against the sequential oracle") {
			t.Errorf("node %d did not verify:\n%s", i, out)
		}
	}
}

// TestParsimChaosConfigMismatch starts the two processes with different
// -seed values: the handshake's config digest must catch the divergence and
// both exit with code 2 before any event flows.
func TestParsimChaosConfigMismatch(t *testing.T) {
	procs := smoketest.StartCluster(t, 2, func(node int) []string {
		return chaosArgs("-seed", map[int]string{0: "1", 1: "2"}[node])
	})
	for i, p := range procs {
		out, code := p.Wait(t, 60*time.Second)
		if code != 2 {
			t.Fatalf("node %d exit code %d, want 2 (config mismatch):\n%s", i, code, out)
		}
		if !strings.Contains(out, "configuration mismatch") {
			t.Errorf("node %d stderr does not explain the mismatch:\n%s", i, out)
		}
	}
}
