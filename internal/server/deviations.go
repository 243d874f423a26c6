package server

import (
	"reflect"
	"regexp"
	"strings"

	"mdcc/internal/core"
)

// Unlisted returns the fields in which cfg differs from
// Config(cfg.Mode, cfg.Constraints) and whose row in design's (DESIGN.md
// §14's) core.Config table names none of callers, in backticks, under
// "set to something else by": the table is the enforced deviation list.
func Unlisted(design []byte, cfg core.Config, callers ...string) (out []string) {
	_, table, _ := strings.Cut(string(design), "**`core.Config`**")
	got, want := reflect.ValueOf(cfg), reflect.ValueOf(Config(cfg.Mode, cfg.Constraints))
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		row := regexp.MustCompile("(?m)^\\|[^|\n]*`" + name + "`[^|\n]*\\|[^|\n]*\\|([^|\n]*)\\|").FindStringSubmatch(table)
		listed := false
		for _, c := range callers {
			listed = listed || len(row) > 1 && strings.Contains(row[1], "`"+c+"`")
		}
		// A func field is equal only when both are nil.
		if !listed && !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
			out = append(out, name)
		}
	}
	return out
}
