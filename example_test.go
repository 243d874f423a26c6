package mdcc_test

import (
	"fmt"

	"mdcc"
)

// Example shows the basic transaction lifecycle on an in-process
// five-data-center cluster.
func Example() {
	cluster, err := mdcc.StartCluster(mdcc.ClusterConfig{
		LatencyScale: 0.002, // compress WAN latencies for the example
		Constraints:  []mdcc.Constraint{mdcc.MinBound("stock", 0)},
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()

	sess := cluster.Session(mdcc.USWest)

	// Insert, then optimistically update.
	ok, _ := sess.Commit(mdcc.Insert("item/1",
		mdcc.Value{Attrs: map[string]int64{"stock": 10}}))
	fmt.Println("insert committed:", ok)

	// Commutative decrement: single round trip, constraint-checked.
	// Replicas vote on it against the state they have executed, and the
	// insert becomes visible at each one asynchronously, so an abort
	// right after it is retried like any optimistic transaction.
	for attempt := 0; attempt < 100; attempt++ {
		if ok, _ = sess.Commit(mdcc.Commutative("item/1", map[string]int64{"stock": -1})); ok {
			break
		}
	}
	fmt.Println("decrement committed:", ok)

	// Output:
	// insert committed: true
	// decrement committed: true
}

// ExampleSession_Transact shows the optimistic read-modify-write
// retry loop.
func ExampleSession_Transact() {
	cluster, _ := mdcc.StartCluster(mdcc.ClusterConfig{LatencyScale: 0.002})
	defer cluster.Close()
	sess := cluster.Session(mdcc.EUIreland)

	sess.Commit(mdcc.Insert("counter", mdcc.Value{Attrs: map[string]int64{"n": 41}}))

	ok, _ := sess.Transact(5, func(tx *mdcc.TxView) error {
		v, ver, _ := tx.Read("counter")
		tx.Write("counter", ver, v.WithAttr("n", v.Attr("n")+1))
		return nil
	})
	fmt.Println("incremented:", ok)
	// Output:
	// incremented: true
}

// ExampleSession_TransactSerializable shows read-set validation
// (the §4.4 serializability extension).
func ExampleSession_TransactSerializable() {
	cluster, _ := mdcc.StartCluster(mdcc.ClusterConfig{LatencyScale: 0.002})
	defer cluster.Close()
	sess := cluster.Session(mdcc.USEast)

	sess.Commit(
		mdcc.Insert("config/max", mdcc.Value{Attrs: map[string]int64{"limit": 100}}),
		mdcc.Insert("usage", mdcc.Value{Attrs: map[string]int64{"n": 0}}),
	)

	// The write to "usage" is guarded by the read of "config/max":
	// if the limit changes concurrently, the transaction aborts.
	ok, _ := sess.TransactSerializable(5, func(tx *mdcc.TxView) error {
		limit, _, _ := tx.Read("config/max")
		usage, ver, _ := tx.Read("usage")
		if usage.Attr("n") < limit.Attr("limit") {
			tx.Write("usage", ver, usage.WithAttr("n", usage.Attr("n")+1))
		}
		return nil
	})
	fmt.Println("committed:", ok)
	// Output:
	// committed: true
}
