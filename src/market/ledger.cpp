#include "market/ledger.h"

namespace fnda {

void CashLedger::grant(AccountId account, Money amount) {
  balances_[account] += amount;
}

void CashLedger::transfer(AccountId from, AccountId to, Money amount) {
  // Two statements: touching `to` may grow the table and move `from`.
  balances_[from] -= amount;
  balances_[to] += amount;
}

Money CashLedger::balance(AccountId account) const {
  return balances_.get(account);
}

Money CashLedger::total() const { return balances_.sum(); }

void GoodsLedger::grant(AccountId account, std::size_t units) {
  units_[account] += units;
}

bool GoodsLedger::transfer_unit(AccountId from, AccountId to) {
  if (units_.get(from) == 0) return false;
  --units_[from];
  ++units_[to];
  return true;
}

std::size_t GoodsLedger::units(AccountId account) const {
  return units_.get(account);
}

std::size_t GoodsLedger::total() const { return units_.sum(); }

}  // namespace fnda
