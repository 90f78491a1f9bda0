package bpred

import (
	"fmt"
	"sort"
)

// dirMakers is the registry of named direction-predictor configurations.
// Names are stable identifiers used in experiment tables (E11) and in
// dip.Spec digests, so renaming one changes artifact addresses.
var dirMakers = map[string]func() DirPredictor{
	"static-taken":  func() DirPredictor { return Static{TakenAlways: true} },
	"bimodal-4k":    func() DirPredictor { return NewBimodal(12) },
	"twolevel-4k":   func() DirPredictor { return NewTwoLevel(12, 10) },
	"gshare-4k":     func() DirPredictor { return NewGshare(12, 10) },
	"tournament-4k": func() DirPredictor { return NewTournament(12, 10) },
}

// DirNames lists the registered direction-predictor names, sorted.
func DirNames() []string {
	names := make([]string, 0, len(dirMakers))
	for name := range dirMakers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CheckDirName reports an error unless name is a registered direction
// predictor. It is a registry lookup: validating a name builds nothing.
func CheckDirName(name string) error {
	if _, ok := dirMakers[name]; !ok {
		return fmt.Errorf("bpred: unknown direction predictor %q (have %v)", name, DirNames())
	}
	return nil
}

// NewDirByName builds a fresh instance of a registered direction
// predictor. Instances are stateful, so every evaluation that needs
// deterministic results must construct its own.
func NewDirByName(name string) (DirPredictor, error) {
	if err := CheckDirName(name); err != nil {
		return nil, err
	}
	return dirMakers[name](), nil
}
