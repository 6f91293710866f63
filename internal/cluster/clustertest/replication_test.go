package clustertest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"testing"
	"time"

	"gdr/internal/cluster"
	"gdr/internal/faultfs"
	"gdr/internal/server"
)

// The shared-nothing drives: the same lockstep oracle loop as the
// migration equivalence suite, but the node loss is total — SIGKILL plus
// the snapshot directory deleted. Recovery has nothing of the dead node to
// read; the session must come back from the replica the proxy pushed to a
// survivor, byte-identical to the unmigrated control.

// replicaHolders lists which live nodes hold a replica of the token,
// asked of the nodes' spill stores directly so proxy state cannot hide a
// missing or duplicated copy.
func replicaHolders(t testing.TB, c *Cluster, token string) []int {
	t.Helper()
	var holders []int
	for i, n := range c.Nodes {
		if !n.Live() {
			continue // killed
		}
		resp, err := http.Get(n.URL + "/v1/replicas")
		if err != nil {
			t.Fatal(err)
		}
		var list server.ReplicaList
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range list.Replicas {
			if rep.Token == token {
				holders = append(holders, i)
			}
		}
	}
	return holders
}

// getReplicaRaw pulls one replica's bytes and watermark straight off a
// node's spill store.
func getReplicaRaw(t testing.TB, nodeURL, key string) ([]byte, uint64) {
	t.Helper()
	resp, err := http.Get(nodeURL + "/v1/replicas/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET replica %s: status %d", key, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := strconv.ParseUint(resp.Header.Get(server.MutationSeqHeader), 10, 64)
	if err != nil {
		t.Fatalf("replica %s: bad watermark header: %v", key, err)
	}
	return data, seq
}

// putReplicaRaw PUTs watermarked snapshot bytes into a node's spill store
// and returns the status code.
func putReplicaRaw(t testing.TB, nodeURL, key string, seq uint64, data []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, nodeURL+"/v1/replicas/"+key, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(server.MutationSeqHeader, strconv.FormatUint(seq, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// runShardLossEquivalence drives one cluster session and one standalone
// control in lockstep, then destroys the session's owner completely —
// process and disk — mid-drive. The session must be promoted from its
// replica onto a survivor and stay byte-identical to the control; later
// the wiped node returns empty and the drive must still converge.
func runShardLossEquivalence(t *testing.T, workers, sessionWorkers, n, maxRounds int) {
	t.Helper()
	const seed = int64(17)
	csvText, rulesText, d := hospitalUpload(t, n, seed)

	c := Start(t, Options{N: 3, Workers: workers, SessionWorkers: sessionWorkers})
	control := newControlServer(t, workers, sessionWorkers)
	ctx := context.Background()

	cs := createSession(t, c.Client(), c.URL(), csvText, rulesText, seed)
	ctl := createSession(t, control.Client(), control.URL, csvText, rulesText, seed)
	token := cs.id

	equal := func(label string) {
		t.Helper()
		mustEqualObservation(t, label, observe(t, cs), observe(t, ctl))
	}

	wiped, rejoined := false, false
	owner := -1
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		clusterTrace, more := driveRound(t, cs, d.Truth)
		controlTrace, controlMore := driveRound(t, ctl, d.Truth)
		if more != controlMore {
			t.Fatalf("round %d: cluster done=%v but control done=%v", rounds, !more, !controlMore)
		}
		if !more {
			break
		}
		if !reflect.DeepEqual(clusterTrace, controlTrace) {
			t.Fatalf("round %d diverges:\ncluster: %+v\ncontrol: %+v", rounds, clusterTrace, controlTrace)
		}
		switch rounds {
		case 2:
			// The shared-nothing kill: flush replication so the replica is
			// provably current, then take the owner's process AND disk.
			owner = c.Owner(token)
			if owner < 0 {
				t.Fatalf("session %s has no ring owner", token)
			}
			if err := c.Proxy.SyncReplicas(ctx); err != nil {
				t.Fatalf("sync before kill: %v", err)
			}
			c.KillAndWipe(owner)
			c.WaitRing(2, 10*time.Second)
			c.WaitReady(10 * time.Second)
			if newOwner := c.Owner(token); newOwner == owner || newOwner < 0 {
				t.Fatalf("post-wipe: session still routed to dead node %d (owner=%d)", owner, newOwner)
			}
			mustCopies(t, c, token, 1, "post-wipe")
			equal("post-wipe")
			wiped = true
		case 4:
			// The wiped node returns with an empty disk; the health loop
			// re-admits it after FailAfter clean probes and the session may
			// migrate home. Nothing stale can resurrect — there is nothing
			// on its disk to resurrect from.
			c.Restart(owner)
			c.WaitRing(3, 10*time.Second)
			c.WaitReady(10 * time.Second)
			mustCopies(t, c, token, 1, "post-rejoin")
			equal("post-rejoin")
			rejoined = true
		}
	}
	if !wiped || !rejoined {
		t.Fatalf("drive never exercised both phases (rounds=%d wiped=%v rejoined=%v)", rounds, wiped, rejoined)
	}
	if rounds < 5 {
		t.Fatalf("repair finished after %d rounds — too few to cover the kill and rejoin", rounds)
	}
	equal("final")

	// The recovery must have come from a replica — the disk path had
	// nothing to read.
	if v := c.Proxy.Registry().Counter("gdrproxy_replica_promotions_total").Value(); v == 0 {
		t.Fatal("no replica promotions recorded; recovery did not use the replica path")
	}

	var status map[string]any
	if code := doJSON(t, cs.client, "GET", cs.url("/status"), nil, &status); code != 200 {
		t.Fatalf("status: %d", code)
	}
	if status["stats"].(map[string]any)["applied"].(float64) == 0 {
		t.Fatal("no repairs applied over the whole drive")
	}
}

// TestClusterShardLossEquivalenceSerial is the tentpole assertion for
// replication: losing a node and its disk mid-session costs nothing the
// client can observe.
func TestClusterShardLossEquivalenceSerial(t *testing.T) {
	n, rounds := 150, 120
	if testing.Short() {
		n, rounds = 90, 80
	}
	runShardLossEquivalence(t, 2, 1, n, rounds)
}

// TestClusterShardLossEquivalenceWorkers4 re-runs the shard-loss drive
// with intra-session parallelism: promotion from a replica must preserve
// byte-identity under the parallel scoring paths too.
func TestClusterShardLossEquivalenceWorkers4(t *testing.T) {
	n, rounds := 120, 100
	if testing.Short() {
		n, rounds = 80, 60
	}
	runShardLossEquivalence(t, 8, 4, n, rounds)
}

// TestClusterReplicationChaos injects replication-specific faults into the
// oracle drive: pushes that fail at the wire, the replica holder dying and
// losing its spill store, and a stale-watermark write replayed at a node.
// After every heal the cluster must converge back to one fresh primary
// plus one fresh replica, still byte-identical to the control.
func TestClusterReplicationChaos(t *testing.T) {
	n, maxRounds := 120, 80
	if testing.Short() {
		n, maxRounds = 80, 50
	}
	const seed = int64(29)
	csvText, rulesText, d := hospitalUpload(t, n, seed)

	faults := faultfs.New(11)
	c := Start(t, Options{N: 3, Faults: faults})
	control := newControlServer(t, 2, 1)
	ctx := context.Background()

	cs := createSession(t, c.Client(), c.URL(), csvText, rulesText, seed)
	ctl := createSession(t, control.Client(), control.URL, csvText, rulesText, seed)
	token := cs.id

	equal := func(label string) {
		t.Helper()
		mustEqualObservation(t, label, observe(t, cs), observe(t, ctl))
	}

	// Arm phase A before round 0: every replica push now dies at the wire.
	// The create's first push landed before it answered, so the replica
	// starts level and rounds 0 and 1 leave it two rounds behind. (Armed
	// after round 0, that round's push could pass the fault check first
	// and then export a session round 1 had already reached, catching the
	// replica up.)
	faults.Set(cluster.FaultReplicate, faultfs.Rule{P: 1})

	phases := 0
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		clusterTrace, more := driveRound(t, cs, d.Truth)
		controlTrace, controlMore := driveRound(t, ctl, d.Truth)
		if more != controlMore {
			t.Fatalf("round %d: cluster done=%v but control done=%v", rounds, !more, !controlMore)
		}
		if !more {
			break
		}
		if verbs, controlVerbs := clusterTrace.Verbs, controlTrace.Verbs; len(verbs) != len(controlVerbs) {
			t.Fatalf("round %d diverges: %+v vs %+v", rounds, clusterTrace, controlTrace)
		}

		switch rounds {
		case 1:
			// Phase A — push failures are loud, and healing converges. The
			// replica is stale right now; a sync must say so, and serving
			// must be unaffected.
			if err := c.Proxy.SyncReplicas(ctx); err == nil {
				t.Fatal("phase A: sync with failing pushes should report the lag")
			}
			equal("phase A mid-fault")
			faults.Clear()
			if err := c.Proxy.SyncReplicas(ctx); err != nil {
				t.Fatalf("phase A: healed sync: %v", err)
			}
			owner := c.Owner(token)
			holders := replicaHolders(t, c, token)
			if len(holders) != 1 || holders[0] == owner {
				t.Fatalf("phase A: replica holders %v (owner %d), want exactly one non-owner", holders, owner)
			}
			equal("phase A healed")
			phases++
		case 3:
			// Phase B — the replica holder dies and loses its disk. The
			// audit must re-hint the replica to the remaining survivor, and
			// the returned (empty) node must be re-populated, not trusted.
			holders := replicaHolders(t, c, token)
			if len(holders) != 1 {
				t.Fatalf("phase B: replica holders %v, want exactly one", holders)
			}
			holder := holders[0]
			c.KillAndWipe(holder)
			c.WaitRing(2, 10*time.Second)
			c.WaitReady(10 * time.Second)
			if err := c.Proxy.SyncReplicas(ctx); err != nil {
				t.Fatalf("phase B: sync after holder loss: %v", err)
			}
			owner := c.Owner(token)
			rehinted := replicaHolders(t, c, token)
			if len(rehinted) != 1 || rehinted[0] == owner || rehinted[0] == holder {
				t.Fatalf("phase B: replica holders %v (owner %d, dead %d), want the surviving non-owner", rehinted, owner, holder)
			}
			equal("phase B re-hinted")
			c.Restart(holder)
			c.WaitRing(3, 10*time.Second)
			c.WaitReady(10 * time.Second)
			if err := c.Proxy.SyncReplicas(ctx); err != nil {
				t.Fatalf("phase B: sync after holder return: %v", err)
			}
			mustCopies(t, c, token, 1, "phase B restored")
			equal("phase B restored")
			phases++
		case 5:
			// Phase C — a delayed push replays an old watermark straight at
			// the node. The spill store must refuse to roll back, and an
			// exact replay of the current version must stay idempotent.
			if err := c.Proxy.SyncReplicas(ctx); err != nil {
				t.Fatalf("phase C: sync: %v", err)
			}
			holders := replicaHolders(t, c, token)
			if len(holders) != 1 {
				t.Fatalf("phase C: replica holders %v, want exactly one", holders)
			}
			nodeURL := c.Nodes[holders[0]].URL
			data, seq := getReplicaRaw(t, nodeURL, token)
			if seq == 0 {
				t.Fatal("phase C: replica watermark is 0 after mutating rounds")
			}
			if code := putReplicaRaw(t, nodeURL, token, seq-1, data); code != http.StatusConflict {
				t.Fatalf("phase C: stale-watermark push answered %d, want 409", code)
			}
			if _, after := getReplicaRaw(t, nodeURL, token); after != seq {
				t.Fatalf("phase C: stale push moved the watermark %d -> %d", seq, after)
			}
			if code := putReplicaRaw(t, nodeURL, token, seq, data); code != http.StatusOK {
				t.Fatalf("phase C: same-watermark replay answered %d, want 200", code)
			}
			equal("phase C")
			phases++
		}
	}
	if phases != 3 {
		t.Fatalf("only %d of 3 replication chaos phases ran (repair finished after %d rounds)", phases, rounds)
	}
	equal("final")
}
