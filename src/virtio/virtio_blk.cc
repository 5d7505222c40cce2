#include "src/virtio/virtio_blk.h"

#include "src/core/invariant.h"

namespace daredevil {

GuestVm::GuestVm(Machine* machine, StorageStack* stack, std::string name,
                 uint64_t guest_id, std::vector<int> vcpu_to_core, uint32_t nsid,
                 const VirtioCosts& costs)
    : machine_(machine),
      stack_(stack),
      name_(std::move(name)),
      guest_id_(guest_id),
      vcpu_to_core_(std::move(vcpu_to_core)),
      nsid_(nsid),
      costs_(costs),
      high_vq_(this, GuestSla::kLatency),
      low_vq_(this, GuestSla::kThroughput),
      next_host_id_(guest_id << 32) {
  DD_CHECK(!vcpu_to_core_.empty())
      << "guest " << name_ << " (id=" << guest_id_ << ") has no vCPUs";
  // Register one host tenant per VQ; its ionice encodes the VQ's SLA so the
  // host stack keeps the VQ-NQ mapping SLA-consistent (§8.1).
  high_vq_.tenant_.id = TenantId{(guest_id << 8) | 1};
  high_vq_.tenant_.name = name_ + "-vq-hi";
  high_vq_.tenant_.group = "VM-L";
  high_vq_.tenant_.ionice = IoniceClass::kRealtime;
  high_vq_.tenant_.core = vcpu_to_core_[0];
  high_vq_.tenant_.primary_nsid = nsid_;
  low_vq_.tenant_.id = TenantId{(guest_id << 8) | 2};
  low_vq_.tenant_.name = name_ + "-vq-lo";
  low_vq_.tenant_.group = "VM-T";
  low_vq_.tenant_.ionice = IoniceClass::kBestEffort;
  low_vq_.tenant_.core = vcpu_to_core_[vcpu_to_core_.size() - 1];
  low_vq_.tenant_.primary_nsid = nsid_;
  stack_->OnTenantStart(&high_vq_.tenant_);
  stack_->OnTenantStart(&low_vq_.tenant_);
}

GuestVm::~GuestVm() {
  stack_->OnTenantExit(&high_vq_.tenant_);
  stack_->OnTenantExit(&low_vq_.tenant_);
}

void GuestVm::SubmitGuestIo(GuestRequest* rq) {
  DD_CHECK(rq->vcpu >= 0 && rq->vcpu < num_vcpus())
      << "guest " << name_ << " request on invalid vCPU " << rq->vcpu << " of "
      << num_vcpus();
  rq->issue_time = machine_->now();
  VirtQueue& vq = this->vq(rq->sla);
  ++vq.submitted_;
  ++vm_exits_;
  // Guest driver enqueue + VQ kick (VM exit) runs on the vCPU's host core.
  const int host_core = HostCoreOfVcpu(rq->vcpu);
  machine_->Post(host_core, WorkLevel::kKernel, costs_.vq_kick,
                 [this, rq]() { ForwardToHost(rq); });
}

void GuestVm::ForwardToHost(GuestRequest* rq) {
  VirtQueue& vq = this->vq(rq->sla);
  HostIo* io;
  if (!free_ios_.empty()) {
    io = free_ios_.back();
    free_ios_.pop_back();
  } else {
    io_pool_.push_back(std::make_unique<HostIo>());
    io = io_pool_.back().get();
    io->vm = this;
    io->host_rq.on_complete = [io](Request*) { io->vm->CompleteToGuest(io); };
  }
  io->guest_rq = rq;

  Request& host = io->host_rq;
  host.id = ++next_host_id_;
  host.tenant = &vq.tenant_;
  host.nsid = nsid_;
  host.lba = Lba{rq->lba};
  host.pages = rq->pages;
  host.is_write = rq->is_write;
  host.is_sync = false;
  host.is_meta = false;
  // Pooled HostIo reuse: wipe the previous request's stage stamps or the
  // lifecycle verifier sees a stale (non-monotone) timeline.
  host.ResetTimeline();
  host.t.issue = rq->issue_time;
  host.routed_nsq = -1;
  // The backing tenant "runs" on the kicking vCPU's core for this request.
  vq.tenant_.core = HostCoreOfVcpu(rq->vcpu);
  host.submit_core = vq.tenant_.core;
  stack_->SubmitAsync(&host);
}

void GuestVm::CompleteToGuest(HostIo* io) {
  GuestRequest* rq = io->guest_rq;
  io->guest_rq = nullptr;
  free_ios_.push_back(io);
  VirtQueue& vq = this->vq(rq->sla);
  // Completion injection back into the guest (virtual IRQ) on the vCPU core.
  machine_->Post(HostCoreOfVcpu(rq->vcpu), WorkLevel::kKernel,
                 costs_.completion_inject,
                 [this, rq, &vq]() {
                   rq->complete_time = machine_->now();
                   ++vq.completed_;
                   vq.latency_.Record(rq->complete_time - rq->issue_time);
                   if (rq->on_complete) {
                     rq->on_complete(rq);
                   }
                 });
}

}  // namespace daredevil
