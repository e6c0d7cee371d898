package dist

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dbtrules/arm"
	"dbtrules/rules"
	"dbtrules/x86"
)

// testRule builds a distinct one-instruction rule.
func testRule(id int, op string, n int) *rules.Rule {
	return &rules.Rule{
		ID:           id,
		Guest:        []arm.Instr{arm.MustParse(fmt.Sprintf("%s r0, r0, #%d", op, n))},
		Host:         []x86.Instr{x86.MustParse(fmt.Sprintf("addl $%d, %%eax", n))},
		NumRegParams: 1,
		Source:       fmt.Sprintf("dist:%d", id),
	}
}

// startServer serves a fresh store on an ephemeral port, returning the
// store, a client, and a cleanup-registered server. The long-poll pace is
// shortened so watch tests run in milliseconds.
func startServer(t *testing.T, nRules int) (*rules.Store, *Client) {
	t.Helper()
	store := rules.NewStore()
	ops := []string{"and", "eor", "sub", "add", "orr", "rsb"}
	for i := 0; i < nRules; i++ {
		if !store.Add(testRule(i+1, ops[i%len(ops)], i)) {
			t.Fatalf("fixture Add(%d) rejected", i+1)
		}
	}
	srv := NewServer(store)
	srv.pollInterval = time.Millisecond
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return store, NewClient(srv.Addr())
}

// TestVersionAndSnapshot pins the core wire contract: /version reports
// the store's consistent (version, count, hash), /snapshot's body parses
// back to a store with the same canonical hash, and the advertised hash
// equals what StoreHash computes locally — the equivalence proof the
// incremental path relies on.
func TestVersionAndSnapshot(t *testing.T) {
	store, c := startServer(t, 6)
	ctx := context.Background()

	info, err := c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != store.Version() || info.Count != store.Count() {
		t.Fatalf("version info %+v, store version %d count %d", info, store.Version(), store.Count())
	}
	wantHash, err := StoreHash(store)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hash != wantHash {
		t.Fatalf("advertised hash %s, local StoreHash %s", info.Hash, wantHash)
	}

	list, snapInfo, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snapInfo != info {
		t.Fatalf("snapshot info %+v != version info %+v", snapInfo, info)
	}
	if len(list) != store.Count() {
		t.Fatalf("snapshot has %d rules, store %d", len(list), store.Count())
	}
	local := rules.NewStore()
	for _, r := range list {
		if !local.Add(r) {
			t.Fatalf("snapshot rule %d rejected on reinstall", r.ID)
		}
	}
	gotHash, err := StoreHash(local)
	if err != nil {
		t.Fatal(err)
	}
	if gotHash != info.Hash {
		t.Fatalf("reinstalled snapshot hashes %s, server advertised %s", gotHash, info.Hash)
	}
}

// TestSnapshotCachePerVersion: two fetches at one version serve the same
// cached body; a mutation invalidates it.
func TestSnapshotCachePerVersion(t *testing.T) {
	store, c := startServer(t, 3)
	ctx := context.Background()
	_, a, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-version snapshots diverge: %+v vs %+v", a, b)
	}
	if !store.Add(testRule(99, "adc", 99)) {
		t.Fatal("Add rejected")
	}
	_, after, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version == a.Version || after.Count != a.Count+1 {
		t.Fatalf("post-mutation snapshot info %+v (before %+v)", after, a)
	}
}

// TestWaitVersionLongPoll: an unchanged store times the poll out at the
// requested deadline; a concurrent mutation releases it early with the
// new version.
func TestWaitVersionLongPoll(t *testing.T) {
	store, c := startServer(t, 2)
	ctx := context.Background()
	v0 := store.Version()

	start := time.Now()
	info, err := c.WaitVersion(ctx, v0, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != v0 {
		t.Fatalf("idle long-poll returned version %d, want %d", info.Version, v0)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("idle long-poll returned after %v, want ~50ms", elapsed)
	}

	go func() {
		time.Sleep(10 * time.Millisecond)
		store.Add(testRule(50, "bic", 50))
	}()
	start = time.Now()
	info, err = c.WaitVersion(ctx, v0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version == v0 {
		t.Fatal("long-poll missed the version bump")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("long-poll took %v to observe a bump", elapsed)
	}
}

// TestQuarantinedNotices: quarantines surface as (id, pattern) notices.
func TestQuarantinedNotices(t *testing.T) {
	store, c := startServer(t, 4)
	ctx := context.Background()
	notices, err := c.Quarantined(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(notices) != 0 {
		t.Fatalf("fresh server has %d notices", len(notices))
	}
	if n := store.Quarantine(2); n != 1 {
		t.Fatalf("Quarantine = %d", n)
	}
	notices, err = c.Quarantined(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(notices) != 1 || notices[0].ID != 2 {
		t.Fatalf("notices = %+v, want one with ID 2", notices)
	}
	if notices[0].Pattern == "" {
		t.Error("notice carries no guest pattern")
	}
}

// delivery is one Subscribe callback invocation.
type delivery struct {
	store *rules.Store
	info  VersionInfo
}

// TestSubscribeFullAndIncremental drives the subscription lifecycle
// against a live server: the initial snapshot delivers promptly; a new
// rule on the server forces a full refetch (fresh local store); a
// quarantine arrives incrementally (same local store, mutated in place,
// hash-verified against the server).
func TestSubscribeFullAndIncremental(t *testing.T) {
	store, c := startServer(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan delivery, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Subscribe(ctx, c, &SubscribeOptions{PollTimeout: 50 * time.Millisecond},
			func(s *rules.Store, info VersionInfo) { got <- delivery{s, info} })
	}()
	recv := func(what string) delivery {
		t.Helper()
		select {
		case d := <-got:
			return d
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			panic("unreachable")
		}
	}

	first := recv("initial snapshot")
	if first.store.Count() != store.Count() {
		t.Fatalf("initial delivery has %d rules, server %d", first.store.Count(), store.Count())
	}
	wantHash, _ := StoreHash(store)
	if gotHash, _ := StoreHash(first.store); gotHash != wantHash {
		t.Fatalf("initial delivery hash %s, server %s", gotHash, wantHash)
	}

	// New rule → version bump with no new quarantine notices → full
	// refetch into a fresh store.
	if !store.Add(testRule(77, "adc", 77)) {
		t.Fatal("Add rejected")
	}
	second := recv("post-Add delivery")
	if second.store == first.store {
		t.Error("rule addition was delivered without a refetch (no incremental path exists for adds)")
	}
	if second.store.Count() != store.Count() {
		t.Fatalf("post-Add delivery has %d rules, server %d", second.store.Count(), store.Count())
	}

	// Quarantine → incremental: the same local store mutates in place and
	// proves hash equality without refetching.
	if n := store.Quarantine(3); n != 1 {
		t.Fatalf("Quarantine = %d", n)
	}
	third := recv("post-quarantine delivery")
	if third.store != second.store {
		t.Error("quarantine was delivered by full refetch, want incremental application")
	}
	if !third.store.IsQuarantined(3) {
		t.Error("delivered store did not quarantine rule 3")
	}
	if gotHash, _ := StoreHash(third.store); func() string { h, _ := StoreHash(store); return h }() != gotHash {
		t.Error("incremental delivery hash diverges from server")
	}
	if third.info.Version != store.Version() {
		t.Errorf("delivered version %d, server %d", third.info.Version, store.Version())
	}

	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Subscribe did not return on context cancel")
	}
}

// TestSubscribeInstallFilter: the Install hook gates what enters the
// local store (the SelfTest defence dbtrun wires in); a filtered store
// hashes differently from the server, which is fine — deliveries still
// happen, each via full refetch with the filter reapplied.
func TestSubscribeInstallFilter(t *testing.T) {
	store, c := startServer(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan delivery, 16)
	go func() {
		Subscribe(ctx, c, &SubscribeOptions{
			PollTimeout: 50 * time.Millisecond,
			Install:     func(r *rules.Rule) bool { return r.ID != 1 },
		}, func(s *rules.Store, info VersionInfo) { got <- delivery{s, info} })
	}()
	select {
	case d := <-got:
		if d.store.Count() != store.Count()-1 {
			t.Fatalf("filtered delivery has %d rules, want %d", d.store.Count(), store.Count()-1)
		}
		if _, _, ok := d.store.Freeze().Lookup([]arm.Instr{arm.MustParse("and r4, r4, #0")}); ok {
			t.Error("filtered rule 1 leaked into the local store")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for filtered delivery")
	}
}
