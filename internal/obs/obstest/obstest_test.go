package obstest

import "testing"

const good = `# HELP c_total A counter.
# TYPE c_total counter
c_total{tenant="a\\b\"c\nd` + "\t" + `e"} 1
c_total{tenant="x",view="y",} 2
# HELP h_seconds A histogram.
# TYPE h_seconds histogram
h_seconds_bucket{view="q",le="0.1"} 1
h_seconds_bucket{view="q",le="1"} 3
h_seconds_bucket{view="q",le="+Inf"} 3
h_seconds_sum{view="q"} 0.7
h_seconds_count{view="q"} 3
`

func TestCheckExposition(t *testing.T) {
	if err := CheckExposition(good); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	bad := map[string]string{
		"no HELP":            "# TYPE g gauge\ng 1\n",
		"no TYPE":            "# HELP g A gauge.\ng 1\n",
		"HELP twice":         "# HELP g A.\n# HELP g B.\n# TYPE g gauge\ng 1\n",
		"TYPE after samples": "# HELP g A.\n# TYPE g gauge\ng 1\n# TYPE g gauge\n",
		"unknown type":       "# HELP g A.\n# TYPE g meter\ng 1\n",
		"summary":            "# HELP s A.\n# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 1\ns_count 1\n",
		"untyped":            "# HELP u A.\n# TYPE u untyped\nu 1\n",
		"family twice":       "# HELP g A.\n# TYPE g gauge\ng 1\n# HELP h A.\n# TYPE h gauge\nh 1\n# HELP g A.\n",
		"sample elsewhere":   "# HELP g A.\n# TYPE g gauge\ng 1\n# HELP h A.\n# TYPE h gauge\ng 2\n",
		"series twice":       "# HELP g A.\n# TYPE g gauge\ng{a=\"1\"} 1\ng{a=\"1\"} 2\n",
		"no value":           "# HELP g A.\n# TYPE g gauge\ng\n",
		"bad value":          "# HELP g A.\n# TYPE g gauge\ng one\n",
		"tab escape":         "# HELP g A.\n# TYPE g gauge\ng{a=\"x\\ty\"} 1\n",
		"hex escape":         "# HELP g A.\n# TYPE g gauge\ng{a=\"x\\xff\"} 1\n",
		"invalid UTF-8":      "# HELP g A.\n# TYPE g gauge\ng{a=\"x\xff\"} 1\n",
		"no comma":           "# HELP g A.\n# TYPE g gauge\ng{a=\"1\"b=\"2\"} 1\n",
		"le descends":        "# HELP h A.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"bucket falls":       "# HELP h A.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"no +Inf":            "# HELP h A.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\n",
		"count differs":      "# HELP h A.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 1\n",
		"counter suffix":     "# HELP c A.\n# TYPE c counter\nc_bucket 1\n",
	}
	for name, text := range bad {
		if CheckExposition(text) == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
}
