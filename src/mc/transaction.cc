#include "mc/transaction.hh"

namespace fbdp {

TransPool &
TransPool::local()
{
    thread_local TransPool pool;
    return pool;
}

Transaction *
TransPool::acquire()
{
    ++st.acquires;
    if (freeList.empty()) {
        auto chunk = std::make_unique<Chunk>();
        chunk->objs = std::make_unique<Transaction[]>(chunkSize);
        freeList.reserve(freeList.capacity() + chunkSize);
        for (std::size_t i = 0; i < chunkSize; ++i)
            freeList.push_back(&chunk->objs[i]);
        chunk->next = std::move(chunks);
        chunks = std::move(chunk);
        st.capacity += chunkSize;
    } else {
        ++st.reuses;
    }
    Transaction *t = freeList.back();
    freeList.pop_back();
    ++st.live;
    if (st.live > st.highWater)
        st.highWater = st.live;
    return t;
}

void
TransPool::release(Transaction *t) noexcept
{
    t->reset();
    freeList.push_back(t);
    --st.live;
}

} // namespace fbdp
