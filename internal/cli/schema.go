package cli

import (
	"os"

	"repro/internal/gsl"
	"repro/internal/supermodel"
)

// LoadSchema returns the design a command was pointed at: the built-in
// Company KG of Figure 4 when companyKG is set, else the GSL file at path
// parsed (and so validated). It returns nil, and no error, when neither is
// given; each command decides whether a design is required.
func LoadSchema(path string, companyKG bool) (*supermodel.Schema, error) {
	switch {
	case companyKG:
		return supermodel.CompanyKG(), nil
	case path != "":
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return gsl.Parse(string(src))
	}
	return nil, nil
}
