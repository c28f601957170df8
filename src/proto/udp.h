// UDP: the datagram layer the stock streaming path runs over.

#ifndef SRC_PROTO_UDP_H_
#define SRC_PROTO_UDP_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/kern/unix_kernel.h"
#include "src/proto/ip.h"

namespace ctms {

class UdpLayer {
 public:
  struct Config {
    SimDuration output_cost = Microseconds(120);  // header + pseudo checksum
    SimDuration input_cost = Microseconds(100);   // demux + checksum
  };

  UdpLayer(UnixKernel* kernel, IpLayer* ip, Config config);
  UdpLayer(UnixKernel* kernel, IpLayer* ip) : UdpLayer(kernel, ip, Config{}) {}

  using Handler = std::function<void(const Packet&)>;
  void Bind(uint16_t port, Handler handler);

  // Sends a datagram; `packet.port` selects the destination port.
  void Output(Packet packet);

  uint64_t datagrams_out() const { return datagrams_out_; }
  uint64_t datagrams_in() const { return datagrams_in_; }
  uint64_t no_port_drops() const { return no_port_drops_; }

 private:
  void Input(const Packet& packet);

  UnixKernel* kernel_;
  IpLayer* ip_;
  Config config_;
  std::map<uint16_t, Handler> sockets_;
  uint64_t datagrams_out_ = 0;
  uint64_t datagrams_in_ = 0;
  uint64_t no_port_drops_ = 0;
};

}  // namespace ctms

#endif  // SRC_PROTO_UDP_H_
