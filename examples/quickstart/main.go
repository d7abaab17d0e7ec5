// Quickstart: define a schema, load a few rows, write an RXL view, and
// materialize the XML document — the smallest complete SilkRoute program.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"silkroute"
)

func main() {
	ctx := context.Background()

	// 1. Declare the relational schema: relations, keys, and the foreign
	// keys whose totality tells the planner which child elements are
	// guaranteed to exist ('1' edges) versus optional ('*' edges).
	s := silkroute.NewSchema()
	must(s.AddRelation("Author", []string{"authorid"},
		"authorid", silkroute.Int,
		"name", silkroute.String,
		"country", silkroute.String))
	must(s.AddRelation("Book", []string{"bookid"},
		"bookid", silkroute.Int,
		"authorid", silkroute.Int,
		"title", silkroute.String,
		"year", silkroute.Int))
	must(s.AddForeignKey("Book", []string{"authorid"}, "Author", []string{"authorid"}, true))

	// 2. Load data.
	db := silkroute.NewDB(s)
	must(db.Insert("Author", 1, "Serge Abiteboul", "France"))
	must(db.Insert("Author", 2, "Jennifer Widom", "USA"))
	must(db.Insert("Author", 3, "No Books Yet", "Narnia"))
	must(db.Insert("Book", 10, 1, "Foundations of Databases", 1995))
	must(db.Insert("Book", 11, 1, "Data on the Web", 1999))
	must(db.Insert("Book", 12, 2, "A First Course in Database Systems", 1997))

	// 3. Write the XML view in RXL: nested construct blocks build nested
	// elements; authors without books must still appear, which is why the
	// planner will use an outer join for the book edge.
	const view = `
	from Author $a
	construct
	<author>
	  <name>$a.name</name>
	  <country>$a.country</country>
	  { from Book $b
	    where $b.authorid = $a.authorid
	    construct <book><title>$b.title</title><year>$b.year</year></book> }
	</author>`

	v, err := silkroute.ParseView(db, view, silkroute.WithWrapper("authors"))
	if err != nil {
		log.Fatal(err)
	}

	// 4. Materialize. The Greedy strategy asks the engine's optimizer for
	// cost estimates and picks a near-optimal decomposition into SQL
	// queries; try Unified or FullyPartitioned to compare.
	report, err := v.Materialize(ctx, os.Stdout, silkroute.Greedy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "\n-- %d SQL quer%s, %d tuples, %v total --\n",
		report.Streams, plural(report.Streams), report.Rows, report.TotalTime)
	for i, st := range report.PerStream {
		fmt.Fprintf(os.Stderr, "SQL %d: %s\n", i+1, st.SQL)
	}
}

func plural(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
