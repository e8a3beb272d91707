package blob

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// testKind accepts blobs that start with "blob:", so the Remote and Handler
// decode checks have something to reject.
var testKind = Kind{Name: "test", Ext: ".tst", IndexSalt: "test|", Check: func(b []byte) error {
	if !bytes.HasPrefix(b, []byte("blob:")) {
		return errors.New("bad magic")
	}
	return nil
}}

// fixture is one Store under test plus the two views of its backing storage
// the conformance suite needs: corrupting the blob a key resolves to, and
// counting distinct stored blobs.
type fixture struct {
	store   Store
	tamper  func(t *testing.T, key string)
	objects func(t *testing.T) int
}

func memFixture(m *Mem) fixture {
	return fixture{
		store: m,
		tamper: func(t *testing.T, key string) {
			m.mu.Lock()
			defer m.mu.Unlock()
			b := m.blobs[m.index[key]]
			b[len(b)-1] ^= 1
		},
		objects: func(*testing.T) int {
			m.mu.Lock()
			defer m.mu.Unlock()
			return len(m.blobs)
		},
	}
}

// serve starts a /v1/store server over backing and returns a Remote for it.
func serve(t *testing.T, backing Store) *Remote {
	t.Helper()
	srv := httptest.NewServer(Handler(Mount{Kind: testKind, Store: backing}))
	t.Cleanup(srv.Close)
	return &Remote{Base: srv.URL, Kind: testKind, HTTP: srv.Client()}
}

var fixtures = []struct {
	name string
	open func(t *testing.T) fixture
}{
	{"Mem", func(t *testing.T) fixture { return memFixture(NewMem()) }},
	{"Disk", func(t *testing.T) fixture {
		dir := t.TempDir()
		d, err := NewDisk(dir, testKind)
		if err != nil {
			t.Fatal(err)
		}
		return fixture{
			store: d,
			tamper: func(t *testing.T, key string) {
				ref, err := os.ReadFile(d.indexPath(key))
				if err != nil {
					t.Fatal(err)
				}
				_, hash, _ := strings.Cut(strings.TrimSpace(string(ref)), "\n")
				obj := d.objectPath(hash)
				b, err := os.ReadFile(obj)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)-1] ^= 1
				if err := os.WriteFile(obj, b, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			objects: func(t *testing.T) int {
				objs, err := filepath.Glob(filepath.Join(dir, "objects", "*"+testKind.Ext))
				if err != nil {
					t.Fatal(err)
				}
				return len(objs)
			},
		}
	}},
	{"Remote", func(t *testing.T) fixture {
		backing := memFixture(NewMem())
		backing.store = serve(t, backing.store)
		return backing
	}},
	{"Tiered", func(t *testing.T) fixture {
		local := memFixture(NewMem())
		local.store = &Tiered{Local: local.store, Remote: NewMem()}
		return local
	}},
}

// TestStores is the one conformance suite every Store implementation runs.
func TestStores(t *testing.T) {
	a, b := []byte("blob: alpha"), []byte("blob: beta")
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			t.Run("miss", func(t *testing.T) {
				if got, ok, err := fx.open(t).store.Get("absent"); ok || err != nil || got != nil {
					t.Fatalf("Get on empty store: %q ok=%v err=%v", got, ok, err)
				}
			})
			t.Run("roundtrip", func(t *testing.T) {
				st := fx.open(t).store
				mustPut(t, st, "k", a)
				mustGet(t, st, "k", a)
				mustPut(t, st, "k", b) // Put replaces
				mustGet(t, st, "k", b)
			})
			t.Run("dedup", func(t *testing.T) {
				f := fx.open(t)
				mustPut(t, f.store, "k1", a)
				mustPut(t, f.store, "k2", bytes.Clone(a))
				mustGet(t, f.store, "k1", a)
				mustGet(t, f.store, "k2", a)
				if n := f.objects(t); n != 1 {
					t.Fatalf("%d stored blobs for 1 distinct content, want 1", n)
				}
			})
			t.Run("tamper", func(t *testing.T) {
				f := fx.open(t)
				mustPut(t, f.store, "k", bytes.Clone(a))
				f.tamper(t, "k")
				if got, ok, err := f.store.Get("k"); ok || err == nil {
					t.Fatalf("tampered blob served: %q ok=%v err=%v", got, ok, err)
				}
			})
			t.Run("bad-key", func(t *testing.T) {
				st := fx.open(t).store
				for _, key := range []string{"", "a\nb"} {
					if err := st.Put(key, a); err == nil {
						t.Errorf("Put(%q) succeeded", key)
					}
				}
			})
			t.Run("concurrent", func(t *testing.T) {
				testConcurrent(t, []Store{fx.open(t).store})
			})
		})
	}
}

// testConcurrent races Puts of two different contents under the same keys
// against Gets, across every handle in stores. Once a key is written it is
// never absent again, and every Get must return intact bytes some writer
// put; under -race this also pins the stores' concurrency safety.
func testConcurrent(t *testing.T, stores []Store) {
	t.Helper()
	keys := []string{"k0", "k1", "k2"}
	one := func(k string) []byte { return []byte("blob: one " + k) }
	two := func(k string) []byte { return []byte("blob: two " + k) }
	for _, k := range keys {
		mustPut(t, stores[0], k, one(k))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := stores[g%len(stores)]
			for i := 0; i < 50; i++ {
				k := keys[(g+i)%len(keys)]
				switch g % 4 {
				case 0:
					if err := st.Put(k, one(k)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 1:
					if err := st.Put(k, two(k)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				default:
					got, ok, err := st.Get(k)
					if err != nil || !ok {
						t.Errorf("Get %s: ok=%v err=%v", k, ok, err)
						return
					}
					if !bytes.Equal(got, one(k)) && !bytes.Equal(got, two(k)) {
						t.Errorf("Get %s = %q, which no writer put", k, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDiskTwoHandles pins what cluster nodes lean on when two processes share
// one store directory: independent handles racing on the same keys never see
// a torn or missing entry, and a fresh handle reads what they left.
func TestDiskTwoHandles(t *testing.T) {
	dir := t.TempDir()
	open := func() *Disk {
		d, err := NewDisk(dir, testKind)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	testConcurrent(t, []Store{open(), open()})
	got, ok, err := open().Get("k0")
	if err != nil || !ok || !strings.HasPrefix(string(got), "blob: ") {
		t.Fatalf("fresh handle Get: %q ok=%v err=%v", got, ok, err)
	}
}

// TestDiskKindsShareRoot: kinds with distinct constants keep separate indexes
// and objects in one directory, even under the same key string.
func TestDiskKindsShareRoot(t *testing.T) {
	dir := t.TempDir()
	other := Kind{Name: "other", Ext: ".oth"}
	d1, err := NewDisk(dir, testKind)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDisk(dir, other)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, d1, "k", []byte("blob: test"))
	mustPut(t, d2, "k", []byte("blob: other"))
	mustGet(t, d1, "k", []byte("blob: test"))
	mustGet(t, d2, "k", []byte("blob: other"))
}

// TestDiskRejectsCorruptIndex: an index entry that does not name its own key
// and a well-formed hash is an error, not a path to follow.
func TestDiskRejectsCorruptIndex(t *testing.T) {
	d, err := NewDisk(t.TempDir(), testKind)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{"k\n../../etc/passwd\n", "other\n" + contentHash(nil) + "\n", "k\nabc\n", "k"} {
		if err := os.WriteFile(d.indexPath("k"), []byte(ref), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := d.Get("k"); ok || err == nil {
			t.Errorf("index %q: ok=%v err=%v, want an error", ref, ok, err)
		}
	}
}

// TestDiskFailedPutLeavesNoTemp: a Put whose index rename fails (the index
// path is a directory) reports the error and leaves no temp file behind in
// either directory.
func TestDiskFailedPutLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, testKind)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(d.indexPath("k"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("k", []byte("blob: test")); err == nil {
		t.Fatal("Put onto a directory succeeded")
	}
	for _, sub := range []string{"objects", "index"} {
		tmps, err := filepath.Glob(filepath.Join(dir, sub, ".tmp-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tmps) != 0 {
			t.Errorf("failed Put left %v", tmps)
		}
	}
}

// TestRemoteVerifiesReplies: a peer whose reply does not match its hash
// header, or whose body the kind cannot decode, yields an error — never a
// hit, and never a panic (a short header once sliced out of range).
func TestRemoteVerifiesReplies(t *testing.T) {
	good := []byte("blob: good")
	cases := []struct {
		name   string
		header string
		body   []byte
	}{
		{"short-header", "abc", good},
		{"no-header", "", good},
		{"other-content", contentHash([]byte("blob: other")), good},
		{"undecodable", contentHash([]byte("junk")), []byte("junk")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.header != "" {
					w.Header().Set(hashHeader, tc.header)
				}
				w.Write(tc.body)
			}))
			defer srv.Close()
			r := &Remote{Base: srv.URL, Kind: testKind}
			if got, ok, err := r.Get("k"); ok || err == nil {
				t.Fatalf("Get: %q ok=%v err=%v, want an error", got, ok, err)
			}
		})
	}
}

// TestHandlerRefusesBadRequests pins the handler's 4xx/5xx surface.
func TestHandlerRefusesBadRequests(t *testing.T) {
	backing := NewMem()
	srv := httptest.NewServer(Handler(Mount{Kind: testKind, Store: backing}, Mount{Kind: Kind{Name: "none"}}))
	defer srv.Close()
	do := func(method, kind, key, body string) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+"/v1/store/"+kind+"?"+url.Values{"key": {key}}.Encode(), strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		method, kind, key, body string
		want                    int
	}{
		{"GET", "test", "", "", http.StatusBadRequest},
		{"PUT", "test", "", "blob: x", http.StatusBadRequest},
		{"GET", "test", "a\nb", "", http.StatusBadRequest},
		{"PUT", "test", "workload=a\nb", "blob: x", http.StatusBadRequest},
		{"PUT", "test", "k", "not a blob", http.StatusBadRequest},
		{"GET", "test", "k", "", http.StatusNotFound},
		{"GET", "nosuch", "k", "", http.StatusNotFound},
		{"GET", "none", "k", "", http.StatusNotFound},
		{"PUT", "none", "k", "blob: x", http.StatusNotImplemented},
		{"DELETE", "test", "k", "", http.StatusMethodNotAllowed},
	} {
		if got := do(tc.method, tc.kind, tc.key, tc.body); got != tc.want {
			t.Errorf("%s /v1/store/%s?key=%q: status %d, want %d", tc.method, tc.kind, tc.key, got, tc.want)
		}
	}
	if len(backing.index) != 0 {
		t.Fatalf("refused requests stored %d entries", len(backing.index))
	}
	if got := do("PUT", "test", "k", "blob: x"); got != http.StatusNoContent {
		t.Fatalf("valid PUT: status %d", got)
	}
	mustGet(t, backing, "k", []byte("blob: x"))
}

// failing is a Store whose every call fails, standing in for a fleet that is
// unreachable.
type failing struct{}

func (failing) Get(string) ([]byte, bool, error) { return nil, false, errors.New("unreachable") }
func (failing) Put(string, []byte) error         { return errors.New("unreachable") }

// TestTieredWriteBackAndDegrade: a remote hit is written back to the local
// tier, and a failing remote degrades to a miss on Get and to a local-only
// write on Put.
func TestTieredWriteBackAndDegrade(t *testing.T) {
	a := []byte("blob: alpha")
	local, peer := NewMem(), NewMem()
	mustPut(t, peer, "k", a)
	tiered := &Tiered{Local: local, Remote: serve(t, peer)}
	mustGet(t, tiered, "k", a)
	mustGet(t, local, "k", a)

	down := &Tiered{Local: local, Remote: failing{}}
	mustGet(t, down, "k", a) // served by the write-back
	if got, ok, err := down.Get("absent"); ok || err != nil {
		t.Fatalf("Get with remote down: %q ok=%v err=%v, want a clean miss", got, ok, err)
	}
	mustPut(t, down, "k2", a)
	mustGet(t, local, "k2", a)
}

func mustPut(t *testing.T, st Store, key string, b []byte) {
	t.Helper()
	if err := st.Put(key, b); err != nil {
		t.Fatalf("Put %q: %v", key, err)
	}
}

func mustGet(t *testing.T, st Store, key string, want []byte) {
	t.Helper()
	got, ok, err := st.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get %q: ok=%v err=%v", key, ok, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get %q = %q, want %q", key, got, want)
	}
}

type testKey string

func (k testKey) String() string { return string(k) }

// TestTypedDecodes: a Codec round-trips values through any Store, and bytes
// that pass the store's content check but not the codec are an error, not a
// hit.
func TestTypedDecodes(t *testing.T) {
	codec := NewCodec[testKey]("test", ".tst", "", func(s string) []byte { return []byte("blob:" + s) },
		func(b []byte) (string, error) {
			if err := testKind.Check(b); err != nil {
				return "", err
			}
			return string(b[len("blob:"):]), nil
		})
	mem := NewMem()
	typed := codec.Over(mem)
	if err := typed.Put("k", "value"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := typed.Get("k"); v != "value" || !ok || err != nil {
		t.Fatalf("Get: %q ok=%v err=%v", v, ok, err)
	}
	mustPut(t, mem, "bad", []byte("junk"))
	if v, ok, err := typed.Get("bad"); ok || err == nil || v != "" {
		t.Fatalf("undecodable blob: %q ok=%v err=%v, want an error", v, ok, err)
	}
}
