#include "market/identity.h"

#include <stdexcept>

namespace fnda {

AccountId IdentityRegistry::create_account() {
  return AccountId{next_account_++};
}

IdentityId IdentityRegistry::register_identity(AccountId account) {
  const IdentityId identity = lattice_.at(owners_.size());
  owners_.push_back(account);
  return identity;
}

AccountId IdentityRegistry::owner(IdentityId identity) const {
  const std::optional<std::size_t> slot = lattice_.slot_of(identity);
  if (!slot || *slot >= owners_.size()) {
    throw std::out_of_range("IdentityRegistry::owner: unknown identity");
  }
  return owners_[*slot];
}

std::vector<IdentityId> IdentityRegistry::identities_of(
    AccountId account) const {
  std::vector<IdentityId> result;
  for (std::size_t slot = 0; slot < owners_.size(); ++slot) {
    if (owners_[slot] == account) result.push_back(lattice_.at(slot));
  }
  return result;
}

}  // namespace fnda
