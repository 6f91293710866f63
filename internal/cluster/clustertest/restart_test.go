package clustertest

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"gdr/internal/cluster"
	"gdr/internal/faultfs"
	"gdr/internal/relation"
	"gdr/internal/server"
)

// The restart drives: the session's owner crashes with its disk intact, its
// replica is promoted, rounds are confirmed on the promoted copy, and then
// the owner restarts on its old data dir and the health loop re-admits it.
// The restarted copy predates the failover, so it must never be served
// again, nor absorb the promoted copy when the session moves back: the
// serving lineage wins (rule 1 in internal/cluster).

// restartRig is one cluster session and its unmigrated control.
type restartRig struct {
	t      *testing.T
	c      *Cluster
	cs     *sessionHandle
	ctl    *sessionHandle
	truth  *relation.DB
	rounds int
}

func newRestartRig(t *testing.T, faults *faultfs.Injector) *restartRig {
	n := 120
	if testing.Short() {
		n = 90
	}
	const seed = int64(31)
	csvText, rulesText, d := hospitalUpload(t, n, seed)
	c := Start(t, Options{N: 3, Faults: faults})
	control := newControlServer(t, 2, 1)
	r := &restartRig{
		t:     t,
		c:     c,
		cs:    createSession(t, c.Client(), c.URL(), csvText, rulesText, seed),
		ctl:   createSession(t, control.Client(), control.URL, csvText, rulesText, seed),
		truth: d.Truth,
	}
	mustCopies(t, c, r.cs.id, 1, "created")
	return r
}

// lockstep drives k rounds on both sessions and requires identical traces.
func (r *restartRig) lockstep(k int) {
	r.t.Helper()
	for ; k > 0; k-- {
		clusterTrace, more := driveRound(r.t, r.cs, r.truth)
		controlTrace, controlMore := driveRound(r.t, r.ctl, r.truth)
		if !more || !controlMore {
			r.t.Fatalf("repair finished after %d rounds — too few for the drive", r.rounds)
		}
		if !reflect.DeepEqual(clusterTrace, controlTrace) {
			r.t.Fatalf("round %d diverges:\ncluster: %+v\ncontrol: %+v", r.rounds, clusterTrace, controlTrace)
		}
		r.rounds++
	}
}

func (r *restartRig) equal(label string) {
	r.t.Helper()
	mustEqualObservation(r.t, label, observe(r.t, r.cs), observe(r.t, r.ctl))
}

// killOwner crashes the session's owner, disk intact, and returns its
// index.
func (r *restartRig) killOwner() int {
	r.t.Helper()
	owner := r.c.Owner(r.cs.id)
	if owner < 0 {
		r.t.Fatalf("session %s has no ring owner", r.cs.id)
	}
	r.c.Kill(owner)
	return owner
}

// awaitPromotion waits until the killed owner has left the ring and the
// session serves from its promoted replica.
func (r *restartRig) awaitPromotion(owner int) {
	r.t.Helper()
	r.c.WaitRing(2, 10*time.Second)
	r.c.WaitReady(10 * time.Second)
	if now := r.c.Owner(r.cs.id); now == owner || now < 0 {
		r.t.Fatalf("session still routed to dead node %d (owner=%d)", owner, now)
	}
	mustCopies(r.t, r.c, r.cs.id, 1, "promoted")
}

// rejoin restarts a killed node on its data dir and waits until the health
// loop has re-admitted it and any move back has finished.
func (r *restartRig) rejoin(i int) {
	r.t.Helper()
	r.c.Restart(i)
	r.c.WaitRing(3, 10*time.Second)
	r.c.WaitReady(10 * time.Second)
	mustCopies(r.t, r.c, r.cs.id, 1, "rejoined")
}

// watermark reads the served copy's mutation watermark off the gateway's
// merged listing.
func (r *restartRig) watermark() uint64 {
	r.t.Helper()
	var list server.SessionList
	if code := doJSON(r.t, r.c.Client(), "GET", r.c.URL()+"/v1/sessions", nil, &list); code != 200 {
		r.t.Fatalf("list: status %d", code)
	}
	for _, s := range list.Sessions {
		if s.ID == r.cs.id {
			return s.MutSeq
		}
	}
	r.t.Fatalf("session %s missing from the listing", r.cs.id)
	return 0
}

// TestClusterRestartedOwnerRejoins is the rollback regression: with the
// replica in sync at the kill, rounds confirmed on the promoted copy must
// survive the old owner's return — it restores its own older copy from
// disk, and the move back must not mistake that copy for the session.
func TestClusterRestartedOwnerRejoins(t *testing.T) {
	r := newRestartRig(t, nil)
	r.lockstep(2)
	if err := r.c.Proxy.SyncReplicas(context.Background()); err != nil {
		t.Fatalf("sync before kill: %v", err)
	}
	owner := r.killOwner()
	r.awaitPromotion(owner)
	r.equal("promoted")
	r.lockstep(3)
	mustCopies(t, r.c, r.cs.id, 1, "rounds on the promoted copy")
	r.equal("rounds on the promoted copy")
	r.rejoin(owner)
	r.equal("rejoined")
	r.lockstep(2)
	mustCopies(t, r.c, r.cs.id, 1, "final")
	r.equal("final")
}

// lagAndPromote fails replica pushes for the owner's last 3 rounds, kills
// the owner, waits for its lagging replica's promotion and confirms 1 round
// on the promoted copy. It returns the dead owner and the promoted copy's
// export, whose watermark is below the dead owner's.
func (r *restartRig) lagAndPromote(faults *faultfs.Injector) (int, []byte) {
	r.t.Helper()
	r.lockstep(2)
	if err := r.c.Proxy.SyncReplicas(context.Background()); err != nil {
		r.t.Fatalf("sync before the lag: %v", err)
	}
	faults.Set(cluster.FaultReplicate, faultfs.Rule{P: 1})
	r.lockstep(3)
	lost := r.watermark()
	owner := r.killOwner()
	faults.Clear()
	r.awaitPromotion(owner)
	if _, more := driveRound(r.t, r.cs, r.truth); !more {
		r.t.Fatal("repair finished on the promoted copy")
	}
	if got := r.watermark(); got >= lost {
		r.t.Fatalf("promoted copy at watermark %d is not behind the dead owner's %d; the replica did not lag", got, lost)
	}
	return owner, getBytes(r.t, r.cs.client, r.cs.url("/export"))
}

// mustServe requires the served export to equal the promoted copy's.
func (r *restartRig) mustServe(label string, want []byte) {
	r.t.Helper()
	if got := getBytes(r.t, r.cs.client, r.cs.url("/export")); !bytes.Equal(got, want) {
		r.t.Fatalf("%s: served export differs from the promoted copy's (%d vs %d bytes): the restarted owner's history won", label, len(got), len(want))
	}
}

// TestClusterLaggingReplicaRejoin pins rule 1 against watermarks: the
// replica misses the owner's last 3 rounds, so the owner's restarted copy
// carries a higher watermark than the promoted one while holding a
// different history. The promoted lineage must still win. The 3 unpushed
// rounds are the documented replica-lag loss, so the drive compares the
// served session against the promoted copy, not the control.
func TestClusterLaggingReplicaRejoin(t *testing.T) {
	faults := faultfs.New(13)
	r := newRestartRig(t, faults)
	owner, want := r.lagAndPromote(faults)
	r.rejoin(owner)
	r.mustServe("rejoined", want)
}

// TestClusterDrainedDeadOwnerRestart: an operator drains the owner after
// the health loop declared it dead. The drain must not make the dead
// node's copies count again: when it restarts on its disk, its copy (the
// higher watermark, since the replica lagged) is shed by rule 1 while the
// node stays drained, and re-adding it later serves the promoted lineage.
func TestClusterDrainedDeadOwnerRestart(t *testing.T) {
	faults := faultfs.New(13)
	r := newRestartRig(t, faults)
	owner, want := r.lagAndPromote(faults)
	ctx := context.Background()
	if err := r.c.Drain(ctx, owner); err != nil {
		t.Fatalf("draining the dead owner: %v", err)
	}
	r.c.Restart(owner)
	waitConverged(t, r.c, r.cs.id, 10*time.Second)
	r.c.WaitReady(10 * time.Second)
	if r.c.Proxy.Ring().Has(r.c.Nodes[owner].URL) {
		t.Fatal("the drained node re-entered the ring on its own")
	}
	r.mustServe("restarted while drained", want)
	if err := r.c.AddBack(ctx, owner); err != nil {
		t.Fatalf("re-adding the drained node: %v", err)
	}
	r.c.WaitReady(10 * time.Second)
	mustCopies(t, r.c, r.cs.id, 1, "added back")
	r.mustServe("added back", want)
}
