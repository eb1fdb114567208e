//go:build amd64 && !amd64.v3

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/mat"
)

// resultDigest hashes the bits of everything a run reports: node scores,
// edge scores (with their endpoints) and the generalized eigenvalues.
func resultDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(len(res.NodeScores)))
	for _, s := range res.NodeScores {
		put(math.Float64bits(s))
	}
	put(uint64(len(res.EdgeScores)))
	for _, e := range res.EdgeScores {
		put(uint64(e.U))
		put(uint64(e.V))
		put(math.Float64bits(e.Score))
	}
	put(uint64(len(res.Eigenvalues)))
	for _, v := range res.Eigenvalues {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunGoldenDigest pins the exact output of two fixed runs: a plain run
// and a feature-augmented one. A refactor that claims to leave results
// unchanged must leave both digests unchanged. A deliberate change to the
// output re-records the digests in the same change that causes it, and says
// why. The digests are exact float64 bits: Go may fuse multiply-adds into FMA
// instructions on arm64 and under GOAMD64=v3, which changes the rounding, so
// the build constraint keeps the test to amd64 targets below v3.
func TestRunGoldenDigest(t *testing.T) {
	cases := []struct {
		name string
		want string
		run  func() (*Result, error)
	}{
		{
			name: "plain",
			want: "df63f3609a2455b6e4f5890293dff28152f6ca2fa64efa02717ffd637d6ec11d",
			run: func() (*Result, error) {
				rng := rand.New(rand.NewSource(151))
				in := syntheticInput(rng, 3000, map[int]bool{17: true, 512: true, 2048: true})
				return Run(in, Options{Seed: 3})
			},
		},
		{
			name: "features",
			want: "3b599fd3d4091ca9473b31642b9c03d4398ad0af7759cb3cf202a86a2f9c4496",
			run: func() (*Result, error) {
				rng := rand.New(rand.NewSource(152))
				n := 1100
				in := syntheticInput(rng, n, map[int]bool{3: true, 400: true})
				feats := mat.NewDense(n, 4)
				for i := range feats.Data {
					feats.Data[i] = rng.NormFloat64()
				}
				in.Features = feats
				return Run(in, Options{Seed: 9, FeatureAlpha: 1})
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != c.want {
				t.Fatalf("result digest %s, want %s", got, c.want)
			}
		})
	}
}
