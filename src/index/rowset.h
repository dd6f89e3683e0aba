// Row-id lists returned by the indexes.

#ifndef MALIVA_INDEX_ROWSET_H_
#define MALIVA_INDEX_ROWSET_H_

#include <vector>

#include "storage/value.h"

namespace maliva {

/// Sorted, duplicate-free list of row ids.
using RowIdList = std::vector<RowId>;

}  // namespace maliva

#endif  // MALIVA_INDEX_ROWSET_H_
