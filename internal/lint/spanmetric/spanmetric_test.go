package spanmetric_test

import (
	"testing"

	"spectra/internal/lint/linttest"
	"spectra/internal/lint/spanmetric"
)

const regPath = "spectra/internal/lint/spanmetric/testdata/src/reg"

// TestGolden resolves emit's names against reg through the types scope.
// reg itself is analyzed first (dependency order) and only the format rule
// applies there, as in plain, which cannot reach reg at all.
func TestGolden(t *testing.T) {
	a := spanmetric.New(spanmetric.Config{
		RegistryPkg: regPath,
		Exempt:      []string{"spectra.test.svc"},
	})
	linttest.Run(t, a, "./testdata/src/reg", "./testdata/src/emit", "./testdata/src/plain")
}

// TestEmitOnly loads only the emitting package: the registry is reachable
// solely as a dependency, which is exactly the case the types-scope
// harvest exists for.
func TestEmitOnly(t *testing.T) {
	a := spanmetric.New(spanmetric.Config{
		RegistryPkg: regPath,
		Exempt:      []string{"spectra.test.svc"},
	})
	linttest.Run(t, a, "./testdata/src/emit")
}
