#include "core/registry.h"

#include <charconv>

#include "common/check.h"
#include "core/ncdrf.h"
#include "sched/aalo.h"
#include "sched/baraat.h"
#include "sched/drf.h"
#include "sched/endpoint_fair.h"
#include "sched/fifo.h"
#include "sched/hug.h"
#include "sched/karma.h"
#include "sched/perflow.h"
#include "sched/psp.h"
#include "sched/varys.h"

namespace ncdrf {

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  const std::size_t at = name.rfind('@');
  if (at != std::string::npos) {
    const char* end = name.data() + name.size();
    SchedulerOptions options;
    const auto [ptr, ec] =
        std::from_chars(name.data() + at + 1, end, options.shards);
    NCDRF_CHECK(ec == std::errc() && ptr == end,
                "malformed shard suffix in scheduler name: " + name);
    NCDRF_CHECK(options.shards >= 1,
                "shard count must be positive in: " + name);
    return make_scheduler(name.substr(0, at), options);
  }
  return make_scheduler(name, SchedulerOptions{});
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          const SchedulerOptions& options) {
  if (name == "drf") return std::make_unique<DrfScheduler>(options);
  if (name == "hug") return std::make_unique<HugScheduler>(HugOptions{}, options);
  NCDRF_CHECK(options.shards <= 1,
              name + " has no sharded path (only drf and hug take @N, "
                     "N > 1); use shards == 1");
  if (name == "ncdrf") return std::make_unique<NcDrfScheduler>();
  if (name == "ncdrf-live") {
    return std::make_unique<NcDrfScheduler>(
        NcDrfOptions{.count_finished_flows = false});
  }
  if (name == "psp") return std::make_unique<PspScheduler>();
  if (name == "psp-live") {
    return std::make_unique<PspScheduler>(
        PspOptions{.count_finished_flows = false});
  }
  if (name == "tcp") return std::make_unique<PerFlowScheduler>();
  if (name == "aalo") return std::make_unique<AaloScheduler>();
  if (name == "varys") return std::make_unique<VarysScheduler>();
  if (name == "fifo") return std::make_unique<FifoScheduler>();
  if (name == "baraat") return std::make_unique<BaraatScheduler>();
  if (name == "karma") return std::make_unique<KarmaScheduler>();
  if (name == "persource") {
    return std::make_unique<EndpointFairScheduler>(FairnessEntity::kSource);
  }
  if (name == "perpair") {
    return std::make_unique<EndpointFairScheduler>(
        FairnessEntity::kSourceDestinationPair);
  }
  NCDRF_CHECK(false, "unknown scheduler name: " + name);
  return nullptr;
}

std::vector<std::string> scheduler_names() {
  return {"tcp",   "persource",  "perpair", "psp",    "psp-live",
          "ncdrf", "ncdrf-live", "drf",     "hug",    "aalo",
          "varys", "baraat",     "fifo",    "karma"};
}

}  // namespace ncdrf
