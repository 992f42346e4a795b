package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/workload"
	"repro/internal/xmldb"
)

// input is everything the benchmark derives from the seed: the XMark text
// handed to the database, the paper's twig queries, and the point lookups
// with answers taken from the generated document itself, never from the
// database.
type input struct {
	text    string
	twigs   []string // Q1x–Q15x
	twigIDs []string
	lookups []lookup // seeded permutation, cycled by the read rounds
}

// lookup is one point query with the value its single answer node must carry.
type lookup struct {
	query string
	want  string
}

func makeInput(seed int64, scale int) (*input, error) {
	doc := datagen.XMark(datagen.XMarkConfig{ItemsPerRegion: 40 * scale, Seed: seed})
	var buf bytes.Buffer
	if err := xmldb.WriteXML(&buf, doc.Root); err != nil {
		return nil, fmt.Errorf("serialising XMark: %w", err)
	}
	in := &input{text: buf.String()}
	for _, q := range workload.XMark() {
		in.twigs = append(in.twigs, q.XPath)
		in.twigIDs = append(in.twigIDs, q.ID)
	}
	in.lookups = lookupsOf(doc.Root)
	rand.New(rand.NewSource(seed)).Shuffle(len(in.lookups), func(i, j int) {
		in.lookups[i], in.lookups[j] = in.lookups[j], in.lookups[i]
	})
	if len(in.lookups) == 0 {
		return nil, fmt.Errorf("generated document has no lookup targets")
	}
	return in, nil
}

// lookupsOf walks the generated document and returns one lookup per person
// (e-mail by @id), item (name by @id) and open auction (initial price by
// @id), with the expected answer read off the tree.
func lookupsOf(site *xmldb.Node) (out []lookup) {
	var walk func(n *xmldb.Node)
	walk = func(n *xmldb.Node) {
		var query, child string
		switch n.Label {
		case "person":
			query, child = `/site/people/person[@id = '%s']/emailaddress`, "emailaddress"
		case "item":
			query, child = `//item[@id = '%s']/name`, "name"
		case "open_auction":
			query, child = `/site/open_auctions/open_auction[@id = '%s']/initial`, "initial"
		}
		if query != "" {
			id, want := "", ""
			for _, c := range n.Children {
				switch c.Label {
				case "@id":
					id = c.Value
				case child:
					want = c.Value
				}
			}
			out = append(out, lookup{query: fmt.Sprintf(query, id), want: want})
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(site)
	return out
}

// churnRow is the subtree the update workload inserts as its n-th row, and
// the lookup that must find it while it is live.
func churnRow(n int) (fragment string, read lookup) {
	id := fmt.Sprintf("churn%d", n)
	email := fmt.Sprintf("%s@churn.example.com", id)
	fragment = fmt.Sprintf(`<person id="%s"><name>Churn %d</name><emailaddress>%s</emailaddress>`+
		`<profile income="%d.00"><interest category="category%d"/></profile></person>`, id, n, email, 20000+n%5000, n%7)
	return fragment, lookup{query: fmt.Sprintf(`/site/people/person[@id = '%s']/emailaddress`, id), want: email}
}
