#include "array/uncached_controller.hpp"

namespace raidsim {

UncachedController::UncachedController(EventQueue& eq, const Config& config)
    : ArrayController(eq, config) {}

void UncachedController::submit(const ArrayRequest& request,
                                Completion on_complete) {
  if (crashed()) return;  // controller down: the request dies unanswered
  if (!on_complete) on_complete = [](SimTime) {};
  if (request.is_write) {
    submit_write(request, std::move(on_complete));
  } else {
    submit_read(request, std::move(on_complete));
  }
}

void UncachedController::submit_read(const ArrayRequest& request,
                                     Completion on_complete) {
  ++stats_.read_requests;
  auto extents = layout_->map_read(request.logical_block, request.block_count);
  auto barrier =
      Barrier::create(eq_.op_arena(), static_cast<int>(extents.size()), std::move(on_complete));
  for (auto extent : extents) {
    extent.disk = choose_mirror_read_disk(extent);
    const std::int64_t bytes = block_bytes(extent.block_count);
    // Track buffer held from the start of the disk transfer until the
    // data have drained onto the channel.
    buffers_->acquire([this, extent, bytes, barrier] {
      tail_read(extent, DiskPriority::kNormal,
                [this, bytes, barrier](SimTime) {
                  channel_->transfer(bytes, [this, barrier](SimTime t) {
                    buffers_->release();
                    barrier->arrive(t);
                  });
                });
    });
  }
}

void UncachedController::submit_write(const ArrayRequest& request,
                                      Completion on_complete) {
  ++stats_.write_requests;
  // The request, its byte count and the host continuation outlive the
  // buffer grant, the channel transfer and the plan barrier, so they live
  // once in the engine's op arena and each stage captures the handle.
  struct WriteCtx {
    ArrayRequest req;
    std::int64_t bytes = 0;
    Completion done;
  };
  auto ctx = make_op<WriteCtx>(eq_.op_arena());
  ctx->req = request;
  ctx->bytes = block_bytes(request.block_count);
  ctx->done = std::move(on_complete);
  // The write data first cross the channel into controller buffers; the
  // disk (and parity) accesses follow. The response is complete when all
  // of them are on disk. In the uncached organizations old data are never
  // buffered ahead of time, so every small parity write takes the
  // read-modify-write path.
  buffers_->acquire([this, ctx] {
    channel_->transfer(ctx->bytes, [this, ctx](SimTime) {
      if (crashed()) {  // crash raced the channel transfer
        buffers_->release();
        return;
      }
      const ArrayRequest& req = ctx->req;
      // Audit bookkeeping: the host content exists only in volatile
      // controller buffers until the disk writes land, and the host is
      // acknowledged only after they all have -- so the uncached
      // controller has no lost-write window, just the write hole.
      std::vector<std::uint64_t> gens;
      if (auditor_) {
        gens.reserve(static_cast<std::size_t>(req.block_count));
        for (int i = 0; i < req.block_count; ++i)
          gens.push_back(auditor_->host_write(req.logical_block + i));
      }
      auto plans = layout_->map_write(req.logical_block, req.block_count);
      auto barrier = Barrier::create(eq_.op_arena(),
          static_cast<int>(plans.size()),
          [this, ctx, gens = std::move(gens)](SimTime t) {
            const ArrayRequest& req = ctx->req;
            if (auditor_)
              for (int i = 0; i < req.block_count; ++i)
                auditor_->acknowledge(req.logical_block + i,
                                      gens[static_cast<std::size_t>(i)]);
            buffers_->release();
            ctx->done(t);
          });
      for (const auto& plan : plans)
        execute_update(plan, [barrier](SimTime t) { barrier->arrive(t); });
    });
  });
}

}  // namespace raidsim
