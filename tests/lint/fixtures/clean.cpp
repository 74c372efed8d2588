// mclint fixture: violates none of R2, R4, R5, R8 or R11. Mentions of "std::thread" and
// rand() in comments or strings must not trigger: the rules match only on
// scrubbed code.
#include "parmonc/support/Text.h"

#include <string>

namespace parmonc {

[[nodiscard]] Status fixtureSave(const std::string &Path) {
  const char *Note = "calling rand() or std::thread here would be bad";
  if (Status Written = writeFileAtomic(Path, Note); !Written)
    return Written;
  (void)createDirectories(Path + ".d");
  return Status::ok();
}

} // namespace parmonc
