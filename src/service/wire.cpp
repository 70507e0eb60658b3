#include "sesame/service/wire.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "sesame/eddi/ode.hpp"

namespace sesame::service {

namespace {

using eddi::ode::Value;

std::uint64_t require_job(const Value& doc) {
  if (!doc.is_object() || doc.as_object().count("job") == 0 ||
      !doc.at("job").is_number()) {
    throw std::runtime_error("request needs a numeric \"job\" field");
  }
  return static_cast<std::uint64_t>(doc.at("job").as_number());
}

/// Re-extracts the submission fields from a wire request document ("type"
/// stripped) so submission_from_json stays the single parser/validator.
Submission submission_from_request(const Value& doc) {
  Value clean;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "type") continue;
    clean[key] = value;
  }
  return submission_from_json(clean.to_json());
}

}  // namespace

WireSession::WireSession(CampaignService& service, mw::Bus& alert_bus,
                         std::string link_name, mw::FramingConfig framing)
    : service_(service),
      framing_(framing),
      monitor_(alert_bus, std::move(link_name)) {}

void WireSession::feed(std::span<const std::uint8_t> bytes) {
  framing_.feed(bytes, [this](std::span<const std::uint8_t> payload,
                              std::uint64_t /*seq*/) {
    handle(std::string(reinterpret_cast<const char*>(payload.data()),
                       payload.size()));
  });
}

void WireSession::send_json(const std::string& text) {
  framing_.send_message(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

void WireSession::handle(const std::string& text) {
  Value reply;
  try {
    const Value doc = eddi::ode::parse_json(text);
    const std::string& type = doc.at("type").as_string();

    if (type == "submit") {
      const Submission submission = submission_from_request(doc);
      const SubmitOutcome out = service_.submit(submission);
      if (out.accepted) {
        reply["type"] = "accepted";
        reply["job"] = out.job_id;
        reply["digest"] = std::to_string(service_.status(out.job_id).digest);
      } else {
        reply["type"] = "rejected";
        reply["reason"] = out.reject_reason;
      }
    } else if (type == "status") {
      reply = status_to_json(service_.status(require_job(doc)));
      reply["type"] = "status";
    } else if (type == "poll") {
      const std::uint64_t id = require_job(doc);
      std::size_t cursor = 0;
      if (doc.as_object().count("cursor") != 0 &&
          doc.at("cursor").is_number()) {
        cursor = static_cast<std::size_t>(doc.at("cursor").as_number());
      }
      const JobStatus status = service_.status(id);
      const auto lines = service_.events(id, cursor);
      reply["type"] = "events";
      reply["job"] = id;
      reply["next"] = cursor + lines.size();
      Value::Array events;
      for (const auto& line : lines) {
        events.push_back(eddi::ode::parse_json(line));
      }
      reply["events"] = Value(std::move(events));
      send_json(reply.to_json());
      // A completed job's poll also delivers the report: announce, then
      // ship the bytes as ONE raw frame (the byte-identity surface).
      if (status.state == JobState::kCompleted) {
        const std::string report = service_.report(id);
        Value follows;
        follows["type"] = "report_follows";
        follows["job"] = id;
        follows["bytes"] = report.size();
        send_json(follows.to_json());
        framing_.send_message(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(report.data()),
            report.size()));
      }
      return;
    } else {
      throw std::runtime_error("unknown request type: " + type);
    }
  } catch (const std::out_of_range&) {
    reply = Value();
    reply["type"] = "error";
    reply["error"] = "no such job";
  } catch (const std::exception& e) {
    reply = Value();
    reply["type"] = "error";
    reply["error"] = std::string(e.what());
  }
  send_json(reply.to_json());
}

WireClient::WireClient(mw::FramingConfig framing) : framing_(framing) {}

void WireClient::send_json(const std::string& text) {
  framing_.send_message(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

void WireClient::submit(const Submission& submission) {
  Value doc = eddi::ode::parse_json(submission_to_json(submission));
  doc["type"] = "submit";
  send_json(doc.to_json());
}

void WireClient::request_status(std::uint64_t job_id) {
  Value doc;
  doc["type"] = "status";
  doc["job"] = job_id;
  send_json(doc.to_json());
}

void WireClient::poll_events(std::uint64_t job_id, std::size_t cursor) {
  Value doc;
  doc["type"] = "poll";
  doc["job"] = job_id;
  doc["cursor"] = cursor;
  send_json(doc.to_json());
}

void WireClient::feed(std::span<const std::uint8_t> bytes) {
  framing_.feed(bytes, [this](std::span<const std::uint8_t> payload,
                              std::uint64_t /*seq*/) {
    std::string text(reinterpret_cast<const char*>(payload.data()),
                     payload.size());
    if (expect_report_) {
      report_ = std::move(text);
      report_received_ = true;
      expect_report_ = false;
      return;
    }
    // Peek for the report announcement; anything else is a response.
    try {
      const Value doc = eddi::ode::parse_json(text);
      if (doc.is_object() && doc.as_object().count("type") != 0 &&
          doc.at("type").is_string() &&
          doc.at("type").as_string() == "report_follows") {
        expect_report_ = true;
      }
    } catch (const std::exception&) {
      // Not JSON — surface it as a response; the caller decides.
    }
    responses_.push_back(std::move(text));
  });
}

std::string WireClient::pop_response() {
  if (responses_.empty()) throw std::out_of_range("no wire responses queued");
  std::string out = std::move(responses_.front());
  responses_.pop_front();
  return out;
}

}  // namespace sesame::service
