package tensor

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Backend is one float32 GEMM implementation. All three entry points share
// the MatMul overwrite contract: dst is fully overwritten (prior contents,
// including NaNs, never leak through), dst must not alias an input, and
// shapes are validated before any element is touched.
//
// Backends are registered by name so benchmarks can sweep them
// (cmd/candlebench -kernels) and training can pin one per process
// (SetBackend). Every registered backend is enumerated by the differential
// oracle suite in backend_oracle_test.go; registering a backend without
// oracle coverage fails the registry-completeness test there.
type Backend interface {
	// Name identifies the backend ("naive", "blocked", "packed").
	Name() string
	// MatMulF32 computes dst = a @ b for a (M x K), b (K x N), dst (M x N).
	MatMulF32(dst, a, b *F32)
	// MatMulTransAF32 computes dst = aᵀ @ b for a (K x M), b (K x N).
	MatMulTransAF32(dst, a, b *F32)
	// MatMulTransBF32 computes dst = a @ bᵀ for a (M x K), b (N x K).
	MatMulTransBF32(dst, a, b *F32)
}

var (
	backendMu sync.Mutex
	backends  = map[string]Backend{}
	// defBackend holds the process-pinned default used by the package-level
	// MatMulF32 dispatchers. Atomic so benchmarks can flip it while kernel
	// goroutines from a previous configuration are still draining.
	defBackend atomic.Pointer[Backend]
)

// RegisterBackend adds b to the registry. It panics on an empty name or a
// duplicate registration — backends are wired in init() and a silent
// overwrite would let two implementations fight over one name.
func RegisterBackend(b Backend) {
	name := b.Name()
	if name == "" {
		panic("tensor: RegisterBackend with empty name")
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("tensor: backend %q registered twice", name))
	}
	backends[name] = b
}

// BackendNames returns the registered backend names, sorted.
func BackendNames() []string {
	backendMu.Lock()
	defer backendMu.Unlock()
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BackendByName returns the named backend.
func BackendByName(name string) (Backend, error) {
	backendMu.Lock()
	b, ok := backends[name]
	backendMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("tensor: unknown kernel backend %q (have %v)", name, BackendNames())
	}
	return b, nil
}

// SetBackend pins the process-wide default float32 backend by name; the
// package-level MatMulF32/MatMulTransAF32/MatMulTransBF32 dispatch to it.
// Training pins one backend per process; benchmarks flip it per measurement.
func SetBackend(name string) error {
	b, err := BackendByName(name)
	if err != nil {
		return err
	}
	defBackend.Store(&b)
	return nil
}

// CurrentBackend returns the process-pinned default backend.
func CurrentBackend() Backend { return *defBackend.Load() }

// MatMulF32 computes dst = a @ b on the process-pinned backend.
func MatMulF32(dst, a, b *F32) { CurrentBackend().MatMulF32(dst, a, b) }

// MatMulTransAF32 computes dst = aᵀ @ b on the process-pinned backend.
func MatMulTransAF32(dst, a, b *F32) { CurrentBackend().MatMulTransAF32(dst, a, b) }

// MatMulTransBF32 computes dst = a @ bᵀ on the process-pinned backend.
func MatMulTransBF32(dst, a, b *F32) { CurrentBackend().MatMulTransBF32(dst, a, b) }

func init() {
	RegisterBackend(naiveBackend{})
	RegisterBackend(blockedBackend{})
	RegisterBackend(packedBackend{})
	// Packed is the fastest on every shape the sweep measures; naive and
	// blocked stay registered as the oracle reference and the fallback.
	if err := SetBackend("packed"); err != nil {
		panic(err)
	}
}
