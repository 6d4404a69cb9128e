#include "src/core/request.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/util/duration.hpp"
#include "src/util/fmt.hpp"

namespace dfmres {

namespace {

constexpr const char* kModeFlow = "flow";
constexpr const char* kModeResyn = "resyn";

/// The value a field applier receives, already converted and
/// range-checked for the field's kind.
struct FieldValue {
  std::string text;
  double number = 0.0;
  bool boolean = false;
  std::chrono::nanoseconds duration{0};
};

struct JobField {
  enum class Kind { String, Number, Integer, Bool, Duration };
  const char* key;
  Kind kind;
  double lo;
  double hi;
  Status (*apply)(CampaignJobSpec&, const FieldValue&, const char* ctx);
};

Status field_error(const char* ctx, const char* key, const char* what) {
  return make_status(StatusCode::kInvalidArgument, "%s: key '%s': %s", ctx,
                     key, what);
}

/// The registry: every per-job knob, with its one wire/manifest/flag
/// name and its one range check. Order here is the manifest
/// serialization order, so keep it stable.
constexpr JobField kJobFields[] = {
    {"name", JobField::Kind::String, 0, 0,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.name = v.text;
       return Status::ok();
     }},
    {"design", JobField::Kind::String, 0, 0,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.design = v.text;
       return Status::ok();
     }},
    {"mode", JobField::Kind::String, 0, 0,
     [](CampaignJobSpec& job, const FieldValue& v, const char* ctx) {
       if (v.text == kModeFlow) {
         job.mode = CampaignJobSpec::Mode::Flow;
       } else if (v.text == kModeResyn) {
         job.mode = CampaignJobSpec::Mode::Resyn;
       } else {
         return field_error(ctx, "mode", "expected \"flow\" or \"resyn\"");
       }
       return Status::ok();
     }},
    {"utilization", JobField::Kind::Number, 0.05, 1.0,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.flow.utilization = v.number;
       return Status::ok();
     }},
    {"threads", JobField::Kind::Integer, 0, 1024,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.flow.atpg.num_threads = static_cast<int>(v.number);
       return Status::ok();
     }},
    {"warm_start", JobField::Kind::Bool, 0, 0,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.flow.warm_start = v.boolean;
       return Status::ok();
     }},
    {"seed", JobField::Kind::Integer, 0, 9e15,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.flow.atpg.seed =
           static_cast<decltype(job.flow.atpg.seed)>(v.number);
       return Status::ok();
     }},
    {"random_batches", JobField::Kind::Integer, 1, 65536,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.flow.atpg.random_batches = static_cast<int>(v.number);
       return Status::ok();
     }},
    {"backtrack_limit", JobField::Kind::Integer, 1, 1e9,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.flow.atpg.backtrack_limit =
           static_cast<decltype(job.flow.atpg.backtrack_limit)>(v.number);
       return Status::ok();
     }},
    {"q_max", JobField::Kind::Integer, 0, 100,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.resyn.q_max = static_cast<int>(v.number);
       return Status::ok();
     }},
    {"p1_pct", JobField::Kind::Number, 0.0, 100.0,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.resyn.p1 = v.number / 100.0;
       return Status::ok();
     }},
    {"max_iterations_per_phase", JobField::Kind::Integer, 1, 100000,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.resyn.max_iterations_per_phase = static_cast<int>(v.number);
       return Status::ok();
     }},
    {"trend_window", JobField::Kind::Integer, 1, 1000,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.resyn.trend_window = static_cast<int>(v.number);
       return Status::ok();
     }},
    {"reanalyses_per_iteration", JobField::Kind::Integer, 1, 1000000,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.resyn.reanalyses_per_iteration = static_cast<int>(v.number);
       return Status::ok();
     }},
    {"dedup_candidates", JobField::Kind::Bool, 0, 0,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.resyn.dedup_candidates = v.boolean;
       return Status::ok();
     }},
    {"deadline", JobField::Kind::Duration, 0, 0,
     [](CampaignJobSpec& job, const FieldValue& v, const char*) {
       job.deadline = v.duration;
       return Status::ok();
     }},
};

const JobField* find_field(std::string_view key) {
  for (const JobField& field : kJobFields) {
    if (key == field.key) return &field;
  }
  return nullptr;
}

/// JSON value -> FieldValue for one field (type + range checks).
Status convert_json(const JobField& field, const JsonValue& value,
                    const char* ctx, FieldValue* out) {
  switch (field.kind) {
    case JobField::Kind::String:
      if (!value.is_string()) {
        return field_error(ctx, field.key, "expected a string");
      }
      out->text = value.as_string();
      return Status::ok();
    case JobField::Kind::Number:
    case JobField::Kind::Integer: {
      if (!value.is_number()) {
        return field_error(ctx, field.key, "expected a number");
      }
      const double d = value.as_number();
      if (!(d >= field.lo) || !(d <= field.hi)) {
        return field_error(ctx, field.key, "out of range");
      }
      if (field.kind == JobField::Kind::Integer && d != std::floor(d)) {
        return field_error(ctx, field.key, "expected an integer");
      }
      out->number = d;
      return Status::ok();
    }
    case JobField::Kind::Bool:
      if (!value.is_bool()) {
        return field_error(ctx, field.key, "expected a boolean");
      }
      out->boolean = value.as_bool();
      return Status::ok();
    case JobField::Kind::Duration: {
      if (!value.is_string()) {
        return field_error(ctx, field.key, "expected a duration string");
      }
      auto d = parse_duration_spec(value.as_string());
      if (!d) {
        return field_error(ctx, field.key, d.status().message().c_str());
      }
      out->duration = *d;
      return Status::ok();
    }
  }
  return field_error(ctx, field.key, "unhandled kind");
}

/// Flag text -> FieldValue through the same ranges as convert_json.
Status convert_text(const JobField& field, const char* text, const char* ctx,
                    FieldValue* out) {
  switch (field.kind) {
    case JobField::Kind::String:
      out->text = text;
      return Status::ok();
    case JobField::Kind::Number:
    case JobField::Kind::Integer: {
      errno = 0;
      char* end = nullptr;
      const double d = std::strtod(text, &end);
      if (end == text || *end != '\0' || errno == ERANGE) {
        return field_error(ctx, field.key, "expected a number");
      }
      if (!(d >= field.lo) || !(d <= field.hi)) {
        return field_error(ctx, field.key, "out of range");
      }
      if (field.kind == JobField::Kind::Integer && d != std::floor(d)) {
        return field_error(ctx, field.key, "expected an integer");
      }
      out->number = d;
      return Status::ok();
    }
    case JobField::Kind::Bool:
      if (!std::strcmp(text, "true") || !std::strcmp(text, "1")) {
        out->boolean = true;
      } else if (!std::strcmp(text, "false") || !std::strcmp(text, "0")) {
        out->boolean = false;
      } else {
        return field_error(ctx, field.key, "expected true or false");
      }
      return Status::ok();
    case JobField::Kind::Duration: {
      auto d = parse_duration_spec(text);
      if (!d) {
        return field_error(ctx, field.key, d.status().message().c_str());
      }
      out->duration = *d;
      return Status::ok();
    }
  }
  return field_error(ctx, field.key, "unhandled kind");
}

}  // namespace

Status apply_job_field_json(CampaignJobSpec* job, const std::string& key,
                            const JsonValue& value, const char* ctx) {
  const JobField* field = find_field(key);
  if (field == nullptr) {
    return make_status(StatusCode::kInvalidArgument, "%s: unknown key '%s'",
                       ctx, key.c_str());
  }
  FieldValue converted;
  if (Status s = convert_json(*field, value, ctx, &converted); !s.is_ok()) {
    return s;
  }
  return field->apply(*job, converted, ctx);
}

Status apply_job_field_text(CampaignJobSpec* job, std::string_view key,
                            const char* text, const char* ctx) {
  const JobField* field = find_field(key);
  if (field == nullptr) {
    return make_status(StatusCode::kInvalidArgument, "%s: unknown key '%.*s'",
                       ctx, static_cast<int>(key.size()), key.data());
  }
  FieldValue converted;
  if (Status s = convert_text(*field, text, ctx, &converted); !s.is_ok()) {
    return s;
  }
  return field->apply(*job, converted, ctx);
}

Status parse_job_spec(const JsonValue& value, const char* ctx,
                      CampaignJobSpec* out) {
  if (!value.is_object()) {
    return make_status(StatusCode::kInvalidArgument, "%s: expected an object",
                       ctx);
  }
  bool have_name = false;
  bool have_design = false;
  for (const auto& [key, member] : value.members()) {
    if (Status s = apply_job_field_json(out, key, member, ctx); !s.is_ok()) {
      return s;
    }
    have_name = have_name || key == "name";
    have_design = have_design || key == "design";
  }
  if (!have_name) return field_error(ctx, "name", "missing");
  if (!have_design) return field_error(ctx, "design", "missing");
  return Status::ok();
}

void write_job_spec(JsonWriter& w, const CampaignJobSpec& job) {
  w.begin_object();
  w.field("name", job.name);
  w.field("design", job.design);
  w.field("mode",
          job.mode == CampaignJobSpec::Mode::Flow ? kModeFlow : kModeResyn);
  w.field("utilization", job.flow.utilization);
  w.field("threads", job.flow.atpg.num_threads);
  w.field("warm_start", job.flow.warm_start);
  w.field("seed", static_cast<std::uint64_t>(job.flow.atpg.seed));
  w.field("random_batches", job.flow.atpg.random_batches);
  w.field("backtrack_limit",
          static_cast<std::int64_t>(job.flow.atpg.backtrack_limit));
  w.field("q_max", job.resyn.q_max);
  w.field("p1_pct", job.resyn.p1 * 100.0);
  w.field("max_iterations_per_phase", job.resyn.max_iterations_per_phase);
  w.field("trend_window", job.resyn.trend_window);
  w.field("reanalyses_per_iteration", job.resyn.reanalyses_per_iteration);
  w.field("dedup_candidates", job.resyn.dedup_candidates);
  if (job.deadline.count() > 0) {
    w.field("deadline",
            strfmt("%.17gs",
                   std::chrono::duration<double>(job.deadline).count()));
  }
  w.end_object();
}

Expected<bool> match_job_flag(std::span<const CliFlagBinding> bindings,
                              int argc, char** argv, int* i,
                              CampaignJobSpec* job) {
  for (const CliFlagBinding& binding : bindings) {
    if (std::strcmp(argv[*i], binding.flag) != 0) continue;
    if (*i + 1 >= argc) {
      return make_status(StatusCode::kInvalidArgument, "%s needs a value",
                         binding.flag);
    }
    const char* text = argv[++*i];
    if (Status s = apply_job_field_text(job, binding.key, text, binding.flag);
        !s.is_ok()) {
      return s;
    }
    return true;
  }
  return false;
}

// ---- wire requests -------------------------------------------------------

namespace {

constexpr const char* kKindSubmitJob = "submit_job";
constexpr const char* kKindSubmitCampaign = "submit_campaign";
constexpr const char* kKindStatus = "status";
constexpr const char* kKindCancel = "cancel";
constexpr const char* kKindDrain = "drain";

Status request_error(const char* what) {
  return make_status(StatusCode::kInvalidArgument, "request: %s", what);
}

}  // namespace

const char* Request::kind() const {
  return std::visit(
      [](const auto& r) -> const char* {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, RunRequest>) return kKindSubmitJob;
        if constexpr (std::is_same_v<T, CampaignRequest>) {
          return kKindSubmitCampaign;
        }
        if constexpr (std::is_same_v<T, StatusRequest>) return kKindStatus;
        if constexpr (std::is_same_v<T, CancelRequest>) return kKindCancel;
        if constexpr (std::is_same_v<T, DrainRequest>) return kKindDrain;
      },
      payload);
}

const std::string& Request::id() const {
  static const std::string kEmpty;
  return std::visit(
      [](const auto& r) -> const std::string& {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, DrainRequest>) {
          return kEmpty;
        } else {
          return r.id;
        }
      },
      payload);
}

Status validate_campaign_id(const std::string& id) {
  if (id.empty()) {
    return make_status(StatusCode::kInvalidArgument, "empty campaign id");
  }
  if (id.size() > 128) {
    return make_status(StatusCode::kInvalidArgument,
                       "campaign id longer than 128 characters");
  }
  if (id == "." || id == "..") {
    return make_status(StatusCode::kInvalidArgument,
                       "campaign id '%s' is not a directory name", id.c_str());
  }
  if (id.rfind("__", 0) == 0) {
    return make_status(StatusCode::kInvalidArgument,
                       "campaign id '%s' uses the reserved '__' prefix",
                       id.c_str());
  }
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) {
      return make_status(StatusCode::kInvalidArgument,
                         "campaign id '%s' has characters outside "
                         "[A-Za-z0-9._-]",
                         id.c_str());
    }
  }
  return Status::ok();
}

Expected<Request> parse_request(std::string_view json) {
  auto doc = JsonValue::parse(json);
  if (!doc) return doc.status();
  if (!doc->is_object()) return request_error("expected a top-level object");

  std::string kind;
  std::string id;
  bool have_schema = false;
  bool have_kind = false;
  bool have_id = false;
  const JsonValue* job = nullptr;
  const JsonValue* manifest = nullptr;
  for (const auto& [key, value] : doc->members()) {
    if (key == "schema") {
      if (!value.is_string() || value.as_string() != schemas::kRequest) {
        return make_status(StatusCode::kInvalidArgument,
                           "request: schema must be \"%s\"", schemas::kRequest);
      }
      have_schema = true;
    } else if (key == "kind") {
      if (!value.is_string()) return request_error("'kind' must be a string");
      kind = value.as_string();
      have_kind = true;
    } else if (key == "id") {
      if (!value.is_string()) return request_error("'id' must be a string");
      id = value.as_string();
      have_id = true;
    } else if (key == "job") {
      job = &value;
    } else if (key == "manifest") {
      manifest = &value;
    } else {
      return make_status(StatusCode::kInvalidArgument,
                         "request: unknown key '%s'", key.c_str());
    }
  }
  if (!have_schema) {
    return make_status(StatusCode::kInvalidArgument,
                       "request: missing \"schema\": \"%s\"",
                       schemas::kRequest);
  }
  if (!have_kind) return request_error("missing 'kind'");

  Request out;
  if (kind == kKindSubmitJob) {
    if (!have_id) return request_error("submit_job needs an 'id'");
    if (Status s = validate_campaign_id(id); !s.is_ok()) return s;
    if (job == nullptr) return request_error("submit_job needs a 'job'");
    if (manifest != nullptr) {
      return request_error("submit_job does not take a 'manifest'");
    }
    RunRequest run;
    run.id = id;
    if (Status s = parse_job_spec(*job, "request job", &run.job); !s.is_ok()) {
      return s;
    }
    out.payload = std::move(run);
  } else if (kind == kKindSubmitCampaign) {
    if (!have_id) return request_error("submit_campaign needs an 'id'");
    if (Status s = validate_campaign_id(id); !s.is_ok()) return s;
    if (manifest == nullptr) {
      return request_error("submit_campaign needs a 'manifest'");
    }
    if (job != nullptr) {
      return request_error("submit_campaign does not take a 'job'");
    }
    CampaignRequest campaign;
    campaign.id = id;
    // The embedded manifest is a complete dfmres-campaign-manifest-v1
    // document going through the same strict parser as a manifest file,
    // so the two surfaces cannot diverge.
    auto parsed = CampaignManifest::from_json_value(*manifest);
    if (!parsed) return parsed.status();
    campaign.manifest = std::move(*parsed);
    out.payload = std::move(campaign);
  } else if (kind == kKindStatus || kind == kKindCancel) {
    if (job != nullptr || manifest != nullptr) {
      return request_error("status/cancel take only an 'id'");
    }
    if (kind == kKindCancel) {
      if (!have_id) return request_error("cancel needs an 'id'");
      if (Status s = validate_campaign_id(id); !s.is_ok()) return s;
      out.payload = CancelRequest{id};
    } else {
      if (have_id && !id.empty()) {
        if (Status s = validate_campaign_id(id); !s.is_ok()) return s;
      }
      out.payload = StatusRequest{id};
    }
  } else if (kind == kKindDrain) {
    if (have_id || job != nullptr || manifest != nullptr) {
      return request_error("drain takes no arguments");
    }
    out.payload = DrainRequest{};
  } else {
    return make_status(StatusCode::kInvalidArgument,
                       "request: unknown kind '%s'", kind.c_str());
  }
  return out;
}

std::string request_to_json(const Request& request) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", schemas::kRequest);
  w.field("kind", request.kind());
  std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, RunRequest>) {
          w.field("id", r.id);
          w.key("job");
          write_job_spec(w, r.job);
        } else if constexpr (std::is_same_v<T, CampaignRequest>) {
          w.field("id", r.id);
          w.key("manifest");
          w.raw(r.manifest.to_json());
        } else if constexpr (std::is_same_v<T, StatusRequest>) {
          if (!r.id.empty()) w.field("id", r.id);
        } else if constexpr (std::is_same_v<T, CancelRequest>) {
          w.field("id", r.id);
        } else {
          static_assert(std::is_same_v<T, DrainRequest>);
        }
      },
      request.payload);
  w.end_object();
  return w.take();
}

}  // namespace dfmres
