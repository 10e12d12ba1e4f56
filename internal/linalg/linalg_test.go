package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymDenseBasics(t *testing.T) {
	m := NewSymDense(3)
	m.Set(0, 1, 2)
	m.Set(2, 2, 5)
	if m.At(1, 0) != 2 || m.At(0, 1) != 2 {
		t.Error("Set not symmetric")
	}
	x := []float64{1, 1, 1}
	dst := make([]float64, 3)
	m.MulVec(dst, x)
	want := []float64{2, 2, 5}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("MulVec[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestMulVecPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSymDense(2).MulVec(make([]float64, 3), make([]float64, 2))
}

func TestJacobiDiagonal(t *testing.T) {
	m := NewSymDense(3)
	m.Set(0, 0, 3)
	m.Set(1, 1, 1)
	m.Set(2, 2, 2)
	vals, _, err := JacobiEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Errorf("vals[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
}

func TestJacobiKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m := NewSymDense(2)
	m.Set(0, 0, 2)
	m.Set(1, 1, 2)
	m.Set(0, 1, 1)
	vals, V, err := JacobiEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Fatalf("vals = %v", vals)
	}
	// Eigenvector for 1 is (1,-1)/sqrt2 up to sign.
	r := V[0*2+0] / V[1*2+0]
	if math.Abs(r+1) > 1e-9 {
		t.Errorf("first eigenvector ratio = %v, want -1", r)
	}
}

// pathLaplacian builds the Laplacian of the n-node path as a dense matrix.
// Its eigenvalues are 2-2cos(pi*k/n), k=0..n-1.
func pathLaplacian(n int) *SymDense {
	m := NewSymDense(n)
	for i := 0; i+1 < n; i++ {
		m.Set(i, i+1, -1)
		m.Set(i, i, m.At(i, i)+1)
		m.Set(i+1, i+1, m.At(i+1, i+1)+1)
	}
	return m
}

func TestJacobiPathLaplacianSpectrum(t *testing.T) {
	n := 12
	m := pathLaplacian(n)
	vals, V, err := JacobiEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		want := 2 - 2*math.Cos(math.Pi*float64(k)/float64(n))
		if math.Abs(vals[k]-want) > 1e-9 {
			t.Errorf("lambda_%d = %v, want %v", k, vals[k], want)
		}
	}
	// Residual check ||Av - lambda v|| for the Fiedler pair.
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		v[i] = V[i*n+1]
	}
	av := make([]float64, n)
	m.MulVec(av, v)
	for i := range av {
		av[i] -= vals[1] * v[i]
	}
	if Norm2(av) > 1e-9 {
		t.Errorf("Fiedler residual %v", Norm2(av))
	}
}

type denseOp struct{ m *SymDense }

func (d denseOp) Dim() int               { return d.m.N }
func (d denseOp) Apply(dst, x []float64) { d.m.MulVec(dst, x) }

func TestTridiagQLAgainstJacobi(t *testing.T) {
	// Tridiagonal matrix with diagonal 2 and off-diagonal -1 (path
	// Laplacian interior): compare QL against Jacobi.
	n := 10
	d := make([]float64, n)
	e := make([]float64, n)
	m := NewSymDense(n)
	for i := 0; i < n; i++ {
		d[i] = 2
		m.Set(i, i, 2)
		if i > 0 {
			e[i] = -1
			m.Set(i-1, i, -1)
		}
	}
	if err := TridiagQL(d, e, nil); err != nil {
		t.Fatal(err)
	}
	jv, _, err := JacobiEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	// Sort d.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(d[i]-jv[i]) > 1e-9 {
			t.Errorf("QL %v vs Jacobi %v at %d", d[i], jv[i], i)
		}
	}
}

func TestLanczosMatchesJacobiOnRandomMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 30
	m := NewSymDense(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	jvals, _, err := JacobiEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	lvals, V, err := Lanczos(denseOp{m}, 3, rng, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if math.Abs(lvals[k]-jvals[k]) > 1e-6 {
			t.Errorf("Lanczos val %d = %v, Jacobi %v", k, lvals[k], jvals[k])
		}
	}
	// Residual of the smallest Ritz pair.
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		v[i] = V[i*3]
	}
	av := make([]float64, n)
	m.MulVec(av, v)
	for i := range av {
		av[i] -= lvals[0] * v[i]
	}
	if r := Norm2(av); r > 1e-6 {
		t.Errorf("Ritz residual = %v", r)
	}
}

func TestLanczosDeflation(t *testing.T) {
	// Path Laplacian: smallest eigenvalue 0 with constant eigenvector.
	// Deflating the constant vector must yield the Fiedler value first.
	n := 16
	m := pathLaplacian(n)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	rng := rand.New(rand.NewSource(5))
	vals, _, err := Lanczos(denseOp{m}, 1, rng, [][]float64{ones}, n)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 - 2*math.Cos(math.Pi/float64(n))
	if math.Abs(vals[0]-want) > 1e-8 {
		t.Errorf("deflated smallest = %v, want Fiedler %v", vals[0], want)
	}
}

func TestLanczosErrors(t *testing.T) {
	m := pathLaplacian(4)
	rng := rand.New(rand.NewSource(1))
	if _, _, err := Lanczos(denseOp{m}, 0, rng, nil, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := Lanczos(denseOp{m}, 9, rng, nil, 0); err == nil {
		t.Error("k>n accepted")
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Errorf("Norm2 = %v", Norm2(x))
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 {
		t.Errorf("Scale = %v", y)
	}
	if Dot(x, x) != 25 {
		t.Errorf("Dot = %v", Dot(x, x))
	}
}

// Property: Jacobi eigendecomposition reconstructs the matrix: A = V D Vᵀ.
func TestQuickJacobiReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		m := NewSymDense(n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		vals, V, err := JacobiEigen(m)
		if err != nil {
			return false
		}
		// Check A*v_k = lambda_k*v_k for all k.
		for k := 0; k < n; k++ {
			v := make([]float64, n)
			for i := 0; i < n; i++ {
				v[i] = V[i*n+k]
			}
			av := make([]float64, n)
			m.MulVec(av, v)
			for i := range av {
				av[i] -= vals[k] * v[i]
			}
			if Norm2(av) > 1e-8 {
				return false
			}
		}
		// Eigenvalues ascending.
		for k := 1; k < n; k++ {
			if vals[k] < vals[k-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(18))}); err != nil {
		t.Error(err)
	}
}

// Property: eigenvectors returned by Jacobi are orthonormal.
func TestQuickJacobiOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		m := NewSymDense(n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		_, V, err := JacobiEigen(m)
		if err != nil {
			return false
		}
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				var dot float64
				for i := 0; i < n; i++ {
					dot += V[i*n+a] * V[i*n+b]
				}
				want := 0.0
				if a == b {
					want = 1
				}
				if math.Abs(dot-want) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Error(err)
	}
}
