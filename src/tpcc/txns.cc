#include "tpcc/txns.h"

#include <algorithm>
#include <tuple>
#include <vector>

namespace btrim {
namespace tpcc {

namespace {

constexpr int64_t kTxnDate = 20260708;

/// Finishes a transaction attempt: commits on OK, aborts otherwise.
TxnResult Finish(Database* db, Transaction* txn, Status body_status,
                 bool user_abort = false) {
  TxnResult result;
  result.user_abort = user_abort;
  if (body_status.ok() && !user_abort) {
    result.status = db->Commit(txn);
    result.committed = result.status.ok();
    return result;
  }
  Status abort_status = db->Abort(txn);
  (void)abort_status;
  result.status = body_status;
  if (user_abort) result.status = Status::OK();
  return result;
}

/// Locates a customer key: 60% by last name (middle row ordered by
/// c_first, spec 2.5.2.2), 40% by id.
Status PickCustomerKey(TpccContext* ctx, TpccRandom* rnd, Transaction* txn,
                       int c_w_id, int c_d_id, std::string* out_key,
                       int* out_c_id) {
  Table* customer = ctx->tables.customer;
  if (!rnd->Percent(60)) {
    const int c_id = rnd->CustomerId(ctx->scale.customers_per_district);
    *out_c_id = c_id;
    *out_key = customer->pk_encoder().KeyForInts({c_w_id, c_d_id, c_id});
    return Status::OK();
  }
  // By last name via the (w, d, c_last) secondary index.
  const std::string last =
      rnd->RandomLastName(ctx->scale.customers_per_district);
  std::string prefix;
  KeyEncoder::AppendInt(&prefix, c_w_id);
  KeyEncoder::AppendInt(&prefix, c_d_id);
  KeyEncoder::AppendPaddedString(&prefix, Slice(last), 16);

  std::string upper = prefix;
  upper.back() = static_cast<char>(upper.back() + 1);

  std::vector<std::pair<std::string, int>> by_first;  // (c_first, c_id)
  BTRIM_RETURN_IF_ERROR(ctx->db->ScanIndex(
      txn, customer, kCustomerByLastName, Slice(prefix), Slice(upper), 0,
      [&](const ScanRow& r) {
        RecordView v(&customer->schema(), Slice(r.payload));
        by_first.emplace_back(v.GetString(cust::kFirst).ToString(),
                              static_cast<int>(v.GetInt(cust::kCId)));
        return true;
      }));
  if (by_first.empty()) {
    // Fall back to an id lookup (scaled-down name space can miss).
    const int c_id = rnd->CustomerId(ctx->scale.customers_per_district);
    *out_c_id = c_id;
    *out_key = customer->pk_encoder().KeyForInts({c_w_id, c_d_id, c_id});
    return Status::OK();
  }
  // Middle customer ordered by c_first.
  std::sort(by_first.begin(), by_first.end());
  const int c_id =
      by_first[(by_first.size() - 1) / 2].second;
  *out_c_id = c_id;
  *out_key = customer->pk_encoder().KeyForInts({c_w_id, c_d_id, c_id});
  return Status::OK();
}

}  // namespace

TxnResult RunNewOrder(TpccContext* ctx, TpccRandom* rnd, int w_id) {
  Database* db = ctx->db;
  const Tables& t = ctx->tables;
  std::unique_ptr<Transaction> txn = db->Begin();

  const int d_id =
      static_cast<int>(rnd->Uniform(1, ctx->scale.districts_per_warehouse));
  const int c_id = rnd->CustomerId(ctx->scale.customers_per_district);
  const int ol_cnt = static_cast<int>(rnd->Uniform(5, 15));
  const bool rollback = rnd->Percent(1);  // spec 2.4.1.4: 1% invalid item

  auto body = [&]() -> Status {
    // Warehouse tax (read-only point access).
    std::string wrow;
    BTRIM_RETURN_IF_ERROR(db->SelectByKey(
        txn.get(), t.warehouse, t.warehouse->pk_encoder().KeyForInts({w_id}),
        &wrow));

    // District: allocate o_id and bump d_next_o_id.
    int32_t o_id = 0;
    BTRIM_RETURN_IF_ERROR(db->Update(
        txn.get(), t.district,
        t.district->pk_encoder().KeyForInts({w_id, d_id}),
        [&](RowEditor& e) {
          o_id = static_cast<int32_t>(e.GetInt(dist::kNextOId));
          e.SetInt32(dist::kNextOId, o_id + 1);
        }));

    // Customer discount/credit (read).
    std::string crow;
    BTRIM_RETURN_IF_ERROR(db->SelectByKey(
        txn.get(), t.customer,
        t.customer->pk_encoder().KeyForInts({w_id, d_id, c_id}), &crow));

    // orders + new_orders inserts.
    {
      RecordBuilder b(&t.orders->schema());
      b.AddInt32(w_id)
          .AddInt32(d_id)
          .AddInt32(o_id)
          .AddInt32(c_id)
          .AddInt64(kTxnDate)
          .AddInt32(0)
          .AddInt32(ol_cnt)
          .AddInt32(1);
      BTRIM_RETURN_IF_ERROR(db->Insert(txn.get(), t.orders, b.Finish()));
    }
    {
      RecordBuilder b(&t.new_orders->schema());
      b.AddInt32(w_id).AddInt32(d_id).AddInt32(o_id);
      BTRIM_RETURN_IF_ERROR(db->Insert(txn.get(), t.new_orders, b.Finish()));
    }

    // Three passes keep every NewOrder's row locks in one global order, so
    // concurrent NewOrders cannot wait in a cycle:
    //  1. draw every line (the random stream is that of a line-at-a-time
    //     loop), then read the items in i_id order — an item read that
    //     caches the row in the IMRS upgrades its lock to X until commit,
    //     so item reads are ordered too; the invalid item of the 1%
    //     rollback sorts last and returns before any stock lock is taken;
    //  2. update stock rows sorted by (supply_w, i_id);
    //  3. insert the order lines with their drawn ol_number.
    struct Line {
      int number;
      int i_id;
      int supply_w;
      int qty;
      double price;
      std::string dist_info;
    };
    std::vector<Line> lines(static_cast<size_t>(ol_cnt));
    for (int number = 1; number <= ol_cnt; ++number) {
      Line& l = lines[static_cast<size_t>(number - 1)];
      l.number = number;
      l.i_id = rnd->ItemId(ctx->scale.items);
      if (rollback && number == ol_cnt) {
        l.i_id = ctx->scale.items + 1;  // unused item id -> NotFound
        break;  // the line-at-a-time loop drew nothing after this item
      }
      l.qty = static_cast<int>(rnd->Uniform(1, 10));

      // Remote warehouse 1% (when the scale has more than one warehouse).
      l.supply_w = w_id;
      if (ctx->scale.warehouses > 1 && rnd->Percent(1)) {
        do {
          l.supply_w =
              static_cast<int>(rnd->Uniform(1, ctx->scale.warehouses));
        } while (l.supply_w == w_id && ctx->scale.warehouses > 1);
      }
    }

    std::vector<Line*> order;
    order.reserve(lines.size());
    for (Line& l : lines) order.push_back(&l);
    std::sort(order.begin(), order.end(), [](const Line* a, const Line* b) {
      return std::tie(a->i_id, a->number) < std::tie(b->i_id, b->number);
    });
    for (Line* l : order) {
      std::string irow;
      Status s = db->SelectByKey(txn.get(), t.item,
                                 t.item->pk_encoder().KeyForInts({l->i_id}),
                                 &irow);
      if (s.IsNotFound()) return s;  // triggers the user rollback path
      BTRIM_RETURN_IF_ERROR(s);
      RecordView iv(&t.item->schema(), Slice(irow));
      l->price = iv.GetDouble(item::kPrice);
    }

    std::sort(order.begin(), order.end(), [](const Line* a, const Line* b) {
      return std::tie(a->supply_w, a->i_id, a->number) <
             std::tie(b->supply_w, b->i_id, b->number);
    });
    for (Line* l : order) {
      BTRIM_RETURN_IF_ERROR(db->Update(
          txn.get(), t.stock,
          t.stock->pk_encoder().KeyForInts({l->supply_w, l->i_id}),
          [&](RowEditor& e) {
            int64_t q = e.GetInt(stk::kQuantity);
            q = q >= l->qty + 10 ? q - l->qty : q - l->qty + 91;
            e.SetInt32(stk::kQuantity, static_cast<int32_t>(q));
            e.SetInt32(stk::kYtd,
                       static_cast<int32_t>(e.GetInt(stk::kYtd) + l->qty));
            e.SetInt32(stk::kOrderCnt,
                       static_cast<int32_t>(e.GetInt(stk::kOrderCnt) + 1));
            if (l->supply_w != w_id) {
              e.SetInt32(stk::kRemoteCnt, static_cast<int32_t>(
                                              e.GetInt(stk::kRemoteCnt) + 1));
            }
            l->dist_info = e.GetString(stk::kDist).ToString();
          }));
    }

    for (const Line& l : lines) {
      RecordBuilder lb(&t.order_line->schema());
      lb.AddInt32(w_id)
          .AddInt32(d_id)
          .AddInt32(o_id)
          .AddInt32(l.number)
          .AddInt32(l.i_id)
          .AddInt32(l.supply_w)
          .AddInt64(0)
          .AddInt32(l.qty)
          .AddDouble(l.qty * l.price)
          .AddString(Slice(l.dist_info));
      BTRIM_RETURN_IF_ERROR(db->Insert(txn.get(), t.order_line, lb.Finish()));
    }
    return Status::OK();
  };

  Status s = body();
  if (rollback && s.IsNotFound()) {
    return Finish(db, txn.get(), Status::OK(), /*user_abort=*/true);
  }
  return Finish(db, txn.get(), s);
}

TxnResult RunPayment(TpccContext* ctx, TpccRandom* rnd, int w_id) {
  Database* db = ctx->db;
  const Tables& t = ctx->tables;
  std::unique_ptr<Transaction> txn = db->Begin();

  const int d_id =
      static_cast<int>(rnd->Uniform(1, ctx->scale.districts_per_warehouse));
  const double amount =
      static_cast<double>(rnd->Uniform(100, 500000)) / 100.0;

  // 15% of payments hit a remote customer warehouse (spec 2.5.1.2).
  int c_w_id = w_id;
  int c_d_id = d_id;
  if (ctx->scale.warehouses > 1 && rnd->Percent(15)) {
    do {
      c_w_id = static_cast<int>(rnd->Uniform(1, ctx->scale.warehouses));
    } while (c_w_id == w_id);
    c_d_id =
        static_cast<int>(rnd->Uniform(1, ctx->scale.districts_per_warehouse));
  }

  auto body = [&]() -> Status {
    BTRIM_RETURN_IF_ERROR(db->Update(
        txn.get(), t.warehouse, t.warehouse->pk_encoder().KeyForInts({w_id}),
        [&](RowEditor& e) {
          e.SetDouble(wh::kYtd, e.GetDouble(wh::kYtd) + amount);
        }));
    BTRIM_RETURN_IF_ERROR(db->Update(
        txn.get(), t.district,
        t.district->pk_encoder().KeyForInts({w_id, d_id}), [&](RowEditor& e) {
          e.SetDouble(dist::kYtd, e.GetDouble(dist::kYtd) + amount);
        }));

    std::string ckey;
    int c_id = 0;
    BTRIM_RETURN_IF_ERROR(
        PickCustomerKey(ctx, rnd, txn.get(), c_w_id, c_d_id, &ckey, &c_id));
    BTRIM_RETURN_IF_ERROR(db->Update(
        txn.get(), t.customer, Slice(ckey), [&](RowEditor& e) {
          e.SetDouble(cust::kBalance, e.GetDouble(cust::kBalance) - amount);
          e.SetDouble(cust::kYtdPayment,
                      e.GetDouble(cust::kYtdPayment) + amount);
          e.SetInt32(cust::kPaymentCnt,
                     static_cast<int32_t>(e.GetInt(cust::kPaymentCnt) + 1));
          if (e.GetString(cust::kCredit) == "BC") {
            std::string data = std::to_string(c_id) + "," +
                               std::to_string(c_d_id) + "," +
                               std::to_string(c_w_id) + "," +
                               std::to_string(amount) + ";";
            const Slice old = e.GetString(cust::kData);
            data.append(old.data(), old.size());
            if (data.size() > 100) data.resize(100);
            e.SetString(cust::kData, Slice(data));
          }
        }));

    RecordBuilder hb(&t.history->schema());
    hb.AddInt64(ctx->next_history_id.fetch_add(1, std::memory_order_relaxed))
        .AddInt32(c_id)
        .AddInt32(c_d_id)
        .AddInt32(c_w_id)
        .AddInt32(d_id)
        .AddInt32(w_id)
        .AddInt64(kTxnDate)
        .AddDouble(amount)
        .AddString("payment-history-data");
    BTRIM_RETURN_IF_ERROR(db->Insert(txn.get(), t.history, hb.Finish()));
    return Status::OK();
  };

  return Finish(db, txn.get(), body());
}

TxnResult RunOrderStatus(TpccContext* ctx, TpccRandom* rnd, int w_id) {
  Database* db = ctx->db;
  const Tables& t = ctx->tables;
  std::unique_ptr<Transaction> txn = db->Begin();

  const int d_id =
      static_cast<int>(rnd->Uniform(1, ctx->scale.districts_per_warehouse));

  auto body = [&]() -> Status {
    std::string ckey;
    int c_id = 0;
    BTRIM_RETURN_IF_ERROR(
        PickCustomerKey(ctx, rnd, txn.get(), w_id, d_id, &ckey, &c_id));
    std::string crow;
    BTRIM_RETURN_IF_ERROR(
        db->SelectByKey(txn.get(), t.customer, Slice(ckey), &crow));

    // Most recent order of the customer via the (w, d, c, o) index.
    const KeyEncoder& by_customer =
        *t.orders->secondaries()[kOrdersByCustomer].encoder;
    const std::string prefix = by_customer.PrefixForInts({w_id, d_id, c_id});
    const std::string upper = by_customer.PrefixForInts(
        {w_id, d_id, c_id, int64_t{1} << 40});  // past any o_id

    int o_id = -1;
    BTRIM_RETURN_IF_ERROR(db->ScanIndex(
        txn.get(), t.orders, kOrdersByCustomer, Slice(prefix), Slice(upper),
        0, [&](const ScanRow& r) {
          RecordView ov(&t.orders->schema(), Slice(r.payload));
          o_id = static_cast<int>(ov.GetInt(ord::kOId));
          return true;
        }));
    if (o_id < 0) return Status::OK();  // customer with no orders

    // Its order lines.
    const KeyEncoder& ol_key = t.order_line->pk_encoder();
    return db->ScanIndex(txn.get(), t.order_line, -1,
                         ol_key.PrefixForInts({w_id, d_id, o_id}),
                         ol_key.PrefixForInts({w_id, d_id, o_id + 1}), 0,
                         [](const ScanRow&) { return true; });
  };

  return Finish(db, txn.get(), body());
}

TxnResult RunDelivery(TpccContext* ctx, TpccRandom* rnd, int w_id) {
  Database* db = ctx->db;
  const Tables& t = ctx->tables;
  std::unique_ptr<Transaction> txn = db->Begin();

  const int carrier = static_cast<int>(rnd->Uniform(1, 10));

  auto body = [&]() -> Status {
    for (int d_id = 1; d_id <= ctx->scale.districts_per_warehouse; ++d_id) {
      // Oldest undelivered order = smallest new_orders key in (w, d).
      int o_id = -1;
      BTRIM_RETURN_IF_ERROR(db->ScanIndex(
          txn.get(), t.new_orders, -1,
          t.new_orders->pk_encoder().PrefixForInts({w_id, d_id}),
          t.new_orders->pk_encoder().PrefixForInts({w_id, d_id + 1}), 1,
          [&](const ScanRow& r) {
            RecordView nv(&t.new_orders->schema(), Slice(r.payload));
            o_id = static_cast<int>(nv.GetInt(no::kOId));
            return true;
          }));
      if (o_id < 0) continue;  // district fully delivered

      Status s = db->Delete(
          txn.get(), t.new_orders,
          t.new_orders->pk_encoder().KeyForInts({w_id, d_id, o_id}));
      if (s.IsNotFound()) continue;  // another delivery raced us
      BTRIM_RETURN_IF_ERROR(s);

      int c_id = 0;
      BTRIM_RETURN_IF_ERROR(db->Update(
          txn.get(), t.orders,
          t.orders->pk_encoder().KeyForInts({w_id, d_id, o_id}),
          [&](RowEditor& e) {
            c_id = static_cast<int>(e.GetInt(ord::kCId));
            e.SetInt32(ord::kCarrierId, carrier);
          }));

      // Stamp delivery date on each line and total their amounts.
      double total = 0.0;
      Status update;
      BTRIM_RETURN_IF_ERROR(db->ScanIndex(
          txn.get(), t.order_line, -1,
          t.order_line->pk_encoder().PrefixForInts({w_id, d_id, o_id}),
          t.order_line->pk_encoder().PrefixForInts({w_id, d_id, o_id + 1}), 0,
          [&](const ScanRow& line) {
            RecordView lv(&t.order_line->schema(), Slice(line.payload));
            total += lv.GetDouble(ol::kAmount);
            const int number = static_cast<int>(lv.GetInt(ol::kNumber));
            update = db->Update(
                txn.get(), t.order_line,
                t.order_line->pk_encoder().KeyForInts(
                    {w_id, d_id, o_id, number}),
                [](RowEditor& e) { e.SetInt64(ol::kDeliveryD, kTxnDate); });
            return update.ok();
          }));
      BTRIM_RETURN_IF_ERROR(update);

      BTRIM_RETURN_IF_ERROR(db->Update(
          txn.get(), t.customer,
          t.customer->pk_encoder().KeyForInts({w_id, d_id, c_id}),
          [&](RowEditor& e) {
            e.SetDouble(cust::kBalance, e.GetDouble(cust::kBalance) + total);
            e.SetInt32(cust::kDeliveryCnt,
                       static_cast<int32_t>(e.GetInt(cust::kDeliveryCnt) + 1));
          }));
    }
    return Status::OK();
  };

  return Finish(db, txn.get(), body());
}

TxnResult RunStockLevel(TpccContext* ctx, TpccRandom* rnd, int w_id) {
  Database* db = ctx->db;
  const Tables& t = ctx->tables;
  std::unique_ptr<Transaction> txn = db->Begin();

  const int d_id =
      static_cast<int>(rnd->Uniform(1, ctx->scale.districts_per_warehouse));
  const int threshold = static_cast<int>(rnd->Uniform(10, 20));

  auto body = [&]() -> Status {
    std::string drow;
    BTRIM_RETURN_IF_ERROR(db->SelectByKey(
        txn.get(), t.district,
        t.district->pk_encoder().KeyForInts({w_id, d_id}), &drow));
    RecordView dv(&t.district->schema(), Slice(drow));
    const int next_o_id = static_cast<int>(dv.GetInt(dist::kNextOId));

    // Lines of the last 20 orders.
    std::vector<int> item_ids;
    BTRIM_RETURN_IF_ERROR(db->ScanIndex(
        txn.get(), t.order_line, -1,
        t.order_line->pk_encoder().PrefixForInts(
            {w_id, d_id, std::max(1, next_o_id - 20)}),
        t.order_line->pk_encoder().PrefixForInts({w_id, d_id, next_o_id}), 0,
        [&](const ScanRow& line) {
          RecordView lv(&t.order_line->schema(), Slice(line.payload));
          item_ids.push_back(static_cast<int>(lv.GetInt(ol::kIId)));
          return true;
        }));
    std::sort(item_ids.begin(), item_ids.end());
    item_ids.erase(std::unique(item_ids.begin(), item_ids.end()),
                   item_ids.end());

    int low_stock = 0;
    std::string skey, srow;  // reused across items
    for (int i_id : item_ids) {
      skey.clear();
      KeyEncoder::AppendInt(&skey, w_id);
      KeyEncoder::AppendInt(&skey, i_id);
      Status s = db->SelectByKey(txn.get(), t.stock, Slice(skey), &srow);
      if (s.IsNotFound()) continue;
      BTRIM_RETURN_IF_ERROR(s);
      RecordView sv(&t.stock->schema(), Slice(srow));
      if (sv.GetInt(stk::kQuantity) < threshold) ++low_stock;
    }
    (void)low_stock;
    return Status::OK();
  };

  return Finish(db, txn.get(), body());
}

}  // namespace tpcc
}  // namespace btrim
