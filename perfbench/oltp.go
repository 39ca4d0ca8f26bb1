package main

import (
	"fmt"
	"math"
	"math/rand"

	"remotedb"
	"remotedb/internal/engine/row"
	"remotedb/internal/sim"
	"remotedb/internal/workload/tpcc"
)

// oltp drives the TPC-C stand-in. The benchmark draws each transaction's
// type and w/d/c from the client's own RNG and calls the transaction
// directly, so the stream depends only on the seed.
//
// The engine has no lock manager (its txn package is the write-ahead
// log), so concurrency control is the client's job. A locked driver
// takes it on, as a DBMS's lock manager would: a write
// transaction holds an exclusive lock for its whole duration, one per
// warehouse and row set. Payment reads and writes the warehouse,
// district and customer rows; NewOrder and Delivery the stock, orders,
// new_order and order_line rows. Every row a transaction writes is keyed
// by its warehouse, so payLock[w] and orderLock[w] make the write
// transactions serializable. Read-only transactions take no lock.
type oltp struct {
	db         *tpcc.DB
	readMostly bool
	newOrders  int64 // successful NewOrders, warm-up included

	payLock, orderLock []*sim.Resource // per warehouse; nil when unlocked
}

// initialOrders is the history tpcc.Load seeds per district.
const initialOrders = 3000

func loadOLTP(cfg tpcc.Config, readMostly, locked bool) func(*remotedb.Proc, *stack) (app, error) {
	return func(p *remotedb.Proc, st *stack) (app, error) {
		db, err := tpcc.Load(p, st.eng, cfg)
		if err != nil {
			return nil, fmt.Errorf("load tpcc: %w", err)
		}
		if err := st.eng.BP.FlushAll(p); err != nil {
			return nil, fmt.Errorf("flush after load: %w", err)
		}
		o := &oltp{db: db, readMostly: readMostly}
		if locked {
			for w := 0; w < cfg.Warehouses; w++ {
				o.payLock = append(o.payLock, sim.NewResource(p.Kernel(), fmt.Sprintf("pay%d", w), 1))
				o.orderLock = append(o.orderLock, sim.NewResource(p.Kernel(), fmt.Sprintf("order%d", w), 1))
			}
		}
		if readMostly {
			if err := o.prefill(p); err != nil {
				return nil, err
			}
		}
		return o, nil
	}
}

// prefill scans the read-mostly working set (the stock table and the
// order lines StockLevel can reach) once, so the pages the local pool
// cannot hold are already in the extension when clients start rather
// than trickling in over a long warm-up.
func (o *oltp) prefill(p *remotedb.Proc) error {
	db := o.db
	if _, err := db.Stock.ScanRange(p, nil, nil, 0); err != nil {
		return fmt.Errorf("prefill stock: %w", err)
	}
	lo := int64(initialOrders - db.Cfg.HistoryWindow - 20)
	for w := int64(0); w < int64(db.Cfg.Warehouses); w++ {
		for d := int64(0); d < int64(db.Cfg.DistrictsPer); d++ {
			if _, err := db.OrderLine.ScanRange(p, row.EncodeKey(nil, w, d, lo), row.EncodeKey(nil, w, d+1), 0); err != nil {
				return fmt.Errorf("prefill order_line: %w", err)
			}
		}
	}
	return nil
}

func (o *oltp) clients() int { return o.db.Cfg.Clients }

func (o *oltp) client(p *remotedb.Proc, _ int, rng *rand.Rand, do doFunc) {
	cfg := o.db.Cfg
	for {
		w := int64(rng.Intn(cfg.Warehouses))
		d := int64(rng.Intn(cfg.DistrictsPer))
		c := int64(rng.Intn(cfg.CustomersPer))
		roll := rng.Intn(100)
		var ok bool
		if o.readMostly {
			// 90% StockLevel; the rest split across the write mix.
			switch {
			case roll < 90:
				ok = do("StockLevel", false, func() error { return o.db.StockLevelTxn(p, w, d) })
			case roll < 95:
				ok = do("NewOrder", true, func() error { return o.newOrder(p, w, d, c) })
			case roll < 98:
				ok = do("Payment", true, func() error { return o.payment(p, w, d, c) })
			default:
				ok = do("OrderStatus", false, func() error { return o.db.OrderStatusTxn(p, w, d, c) })
			}
		} else {
			// The TPC-C default mix: 45/43/4/4/4.
			switch {
			case roll < 45:
				ok = do("NewOrder", true, func() error { return o.newOrder(p, w, d, c) })
			case roll < 88:
				ok = do("Payment", true, func() error { return o.payment(p, w, d, c) })
			case roll < 92:
				ok = do("OrderStatus", false, func() error { return o.db.OrderStatusTxn(p, w, d, c) })
			case roll < 96:
				ok = do("Delivery", true, func() error { return o.delivery(p, w) })
			default:
				ok = do("StockLevel", false, func() error { return o.db.StockLevelTxn(p, w, d) })
			}
		}
		if !ok {
			return
		}
	}
}

func (o *oltp) newOrder(p *remotedb.Proc, w, d, c int64) error {
	defer o.lock(p, o.orderLock, w)()
	err := o.db.NewOrderTxn(p, w, d, c)
	if err == nil {
		o.newOrders++
	}
	return err
}

func (o *oltp) payment(p *remotedb.Proc, w, d, c int64) error {
	defer o.lock(p, o.payLock, w)()
	return o.db.PaymentTxn(p, w, d, c)
}

func (o *oltp) delivery(p *remotedb.Proc, w int64) error {
	defer o.lock(p, o.orderLock, w)()
	return o.db.DeliveryTxn(p, w)
}

// lock takes warehouse w's lock from set, when the driver locks at all,
// and returns its release.
func (o *oltp) lock(p *remotedb.Proc, set []*sim.Resource, w int64) func() {
	if set == nil {
		return func() {}
	}
	l := set[w]
	l.Acquire(p, 1)
	return func() { l.Release(1) }
}

// check verifies TPC-C consistency through table scans after the run.
// Each violated condition is one wrong answer:
//   - per warehouse, w_ytd equals the sum of its districts' d_ytd;
//   - the sum of c_balance + c_ytd over all customers is unchanged
//     (Payment moves an amount from one to the other);
//   - the growth of the sum of c_ytd equals the sum of w_ytd (every
//     Payment credits both);
//   - the orders rows past the seeded history equal the successful
//     NewOrders, and their order_line rows are ten times that.
func (o *oltp) check(p *remotedb.Proc) ([]string, error) {
	db := o.db
	cfg := db.Cfg
	var wrong []string
	whs, err := db.Warehouse.ScanRange(p, nil, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("scan warehouse: %w", err)
	}
	dists, err := db.District.ScanRange(p, nil, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("scan district: %w", err)
	}
	dsum := make(map[int64]float64)
	for _, d := range dists {
		dsum[d[0].(int64)] += d[2].(float64)
	}
	var wytd float64
	for _, w := range whs {
		id, ytd := w[0].(int64), w[1].(float64)
		wytd += ytd
		if !near(ytd, dsum[id]) {
			wrong = append(wrong, fmt.Sprintf("warehouse %d: w_ytd %.2f != sum d_ytd %.2f", id, ytd, dsum[id]))
		}
	}
	custs, err := db.Customer.ScanRange(p, nil, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("scan customer: %w", err)
	}
	var held, cytd float64
	for _, c := range custs {
		held += c[3].(float64) + c[4].(float64)
		cytd += c[4].(float64)
	}
	// tpcc.Load seeds every customer with c_balance -10, c_ytd 10.
	nCust := float64(len(custs))
	if !near(held, 0) {
		wrong = append(wrong, fmt.Sprintf("sum(c_balance + c_ytd) moved to %.2f", held))
	}
	if !near(cytd-10*nCust, wytd) {
		wrong = append(wrong, fmt.Sprintf("growth of sum c_ytd %.2f != sum w_ytd %.2f", cytd-10*nCust, wytd))
	}
	var orders, lines int64
	for w := int64(0); w < int64(cfg.Warehouses); w++ {
		for d := int64(0); d < int64(cfg.DistrictsPer); d++ {
			from := row.EncodeKey(nil, w, d, int64(initialOrders))
			to := row.EncodeKey(nil, w, d+1)
			os, err := db.Orders.ScanRange(p, from, to, 0)
			if err != nil {
				return nil, fmt.Errorf("scan orders: %w", err)
			}
			ls, err := db.OrderLine.ScanRange(p, from, to, 0)
			if err != nil {
				return nil, fmt.Errorf("scan order_line: %w", err)
			}
			orders += int64(len(os))
			lines += int64(len(ls))
		}
	}
	if orders != o.newOrders {
		wrong = append(wrong, fmt.Sprintf("%d new orders rows for %d successful NewOrders", orders, o.newOrders))
	}
	if lines != 10*o.newOrders {
		wrong = append(wrong, fmt.Sprintf("%d new order_line rows for %d successful NewOrders", lines, o.newOrders))
	}
	return wrong, nil
}

// near compares sums of money amounts up to float rounding.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))+1e-6
}
