#include "rpc/server.h"

namespace ipsa::rpc {

namespace {

bool IsRequestType(uint16_t type) {
  return type >= static_cast<uint16_t>(MsgType::kHelloReq) &&
         type <= static_cast<uint16_t>(MsgType::kTableBulkReq) &&
         (type % 2) == 1;
}

}  // namespace

wire::Frame Dispatcher::Handle(const wire::Frame& request) {
  wire::Frame resp;
  resp.seq = request.seq;
  // Unknown request tags still get a well-formed response (tag+1 keeps the
  // req/resp pairing rule even for tags we don't know).
  resp.type = static_cast<uint16_t>(request.type + 1);

  wire::Writer body;
  Status status = Dispatch(request, body);
  wire::Writer payload;
  PutStatus(payload, status);
  if (status.ok()) {
    std::vector<uint8_t> b = body.Take();
    payload.Raw(b);
  }
  resp.payload = payload.Take();
  return resp;
}

Status Dispatcher::Dispatch(const wire::Frame& request, wire::Writer& body) {
  if (!IsRequestType(request.type)) {
    return InvalidArgument("unknown request tag " +
                           std::to_string(request.type));
  }
  MsgType type = static_cast<MsgType>(request.type);
  wire::Reader r(request.payload);

  if (type == MsgType::kHelloReq) {
    IPSA_ASSIGN_OR_RETURN(HelloRequest req, HelloRequest::Decode(r));
    if (req.version != kProtocolVersion) {
      return FailedPrecondition(
          "protocol version mismatch: client " + std::to_string(req.version) +
          ", server " + std::to_string(kProtocolVersion));
    }
    hello_done_ = true;
    BackendInfo info = backend_->Info();
    HelloResponse resp;
    resp.arch = info.arch;
    resp.port_count = info.port_count;
    resp.epoch = info.epoch;
    resp.has_design = info.has_design;
    resp.Encode(body);
    return OkStatus();
  }

  if (!hello_done_) {
    return FailedPrecondition("handshake required before " +
                              std::string(MsgTypeName(request.type)));
  }

  switch (type) {
    case MsgType::kInstallReq: {
      IPSA_ASSIGN_OR_RETURN(InstallRequest req, InstallRequest::Decode(r));
      IPSA_ASSIGN_OR_RETURN(InstallOutcome out,
                            backend_->Install(req.kind, req.source));
      InstallResponse resp;
      resp.compile_ms = out.compile_ms;
      resp.load_ms = out.load_ms;
      resp.epoch = out.epoch;
      resp.Encode(body);
      return OkStatus();
    }
    case MsgType::kTableOpReq: {
      IPSA_ASSIGN_OR_RETURN(TableOp op, TableOp::Decode(r));
      return backend_->ApplyTableOp(op);
    }
    case MsgType::kTableBatchReq: {
      IPSA_ASSIGN_OR_RETURN(TableBatchRequest req,
                            TableBatchRequest::Decode(r));
      IPSA_ASSIGN_OR_RETURN(TableBatchResponse resp,
                            backend_->ApplyTableBatch(req));
      resp.Encode(body);
      return OkStatus();
    }
    case MsgType::kTableBulkReq: {
      IPSA_ASSIGN_OR_RETURN(TableBulkRequest req, TableBulkRequest::Decode(r));
      IPSA_ASSIGN_OR_RETURN(TableBulkResponse resp,
                            backend_->ApplyTableBulk(req));
      resp.Encode(body);
      return OkStatus();
    }
    case MsgType::kApiReq: {
      IPSA_ASSIGN_OR_RETURN(compiler::ApiSpec api, backend_->Api());
      PutApiSpec(body, api);
      return OkStatus();
    }
    case MsgType::kStatsReq: {
      IPSA_ASSIGN_OR_RETURN(StatsResponse resp, backend_->QueryStats());
      resp.Encode(body);
      return OkStatus();
    }
    case MsgType::kEpochReq: {
      BackendInfo info = backend_->Info();
      EpochResponse resp;
      resp.epoch = info.epoch;
      resp.has_design = info.has_design;
      resp.arch = info.arch;
      resp.Encode(body);
      return OkStatus();
    }
    case MsgType::kDrainReq: {
      IPSA_ASSIGN_OR_RETURN(DrainRequest req, DrainRequest::Decode(r));
      IPSA_ASSIGN_OR_RETURN(uint32_t processed, backend_->Drain(req.workers));
      DrainResponse resp;
      resp.processed = processed;
      resp.Encode(body);
      return OkStatus();
    }
    case MsgType::kMetricsReq: {
      IPSA_ASSIGN_OR_RETURN(MetricsResponse resp, backend_->QueryMetrics());
      resp.Encode(body);
      return OkStatus();
    }
    case MsgType::kTracesReq: {
      IPSA_ASSIGN_OR_RETURN(TracesRequest req, TracesRequest::Decode(r));
      IPSA_ASSIGN_OR_RETURN(TracesResponse resp,
                            backend_->DrainTraces(req.max));
      resp.Encode(body);
      return OkStatus();
    }
    case MsgType::kResetMetricsReq:
      return backend_->ResetMetrics();
    default:
      return InvalidArgument("unhandled request tag " +
                             std::to_string(request.type));
  }
}

}  // namespace ipsa::rpc
